#include "telemetry/records.h"

#include <gtest/gtest.h>

#include "telemetry/emitter.h"
#include "telemetry/series_block.h"

namespace seagull {
namespace {

std::vector<TelemetryRecord> SampleRecords() {
  std::vector<TelemetryRecord> records;
  for (int64_t t = 0; t < 30; t += 5) {
    TelemetryRecord r;
    r.server_id = "srv-a";
    r.timestamp = t;
    r.avg_cpu = 10.0 + static_cast<double>(t);
    r.default_backup_start = 120;
    r.default_backup_end = 180;
    records.push_back(r);
  }
  TelemetryRecord b;
  b.server_id = "srv-b";
  b.timestamp = 10;
  b.avg_cpu = 55.5;
  b.default_backup_start = 600;
  b.default_backup_end = 660;
  records.push_back(b);
  return records;
}

TEST(RecordsTest, StreamingTextRoundTrip) {
  auto records = SampleRecords();
  std::string text = RecordsToCsvText(records);
  auto back = ParseTelemetryCsv(text);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*back)[i].server_id, records[i].server_id);
    EXPECT_EQ((*back)[i].timestamp, records[i].timestamp);
    EXPECT_NEAR((*back)[i].avg_cpu, records[i].avg_cpu, 1e-4);
    EXPECT_EQ((*back)[i].default_backup_start,
              records[i].default_backup_start);
    EXPECT_EQ((*back)[i].default_backup_end, records[i].default_backup_end);
  }
}

// SGB1 admits ids up to 64 KiB and transcode prints each one whole, so
// a CSV row has no fixed width.
TEST(RecordsTest, LongServerIdRoundTrips) {
  TelemetryRecord r;
  r.server_id = std::string(300, 'x');
  r.timestamp = 5;
  r.avg_cpu = 1.5;
  const std::string text = RecordsToCsvText({r});
  EXPECT_NE(text.find(r.server_id + ",5,1.5000,0,0\n"), std::string::npos);
  auto back = ParseTelemetryCsv(text);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].server_id, r.server_id);
}

TEST(RecordsTest, ParseRejectsBadHeader) {
  EXPECT_FALSE(ParseTelemetryCsv("a,b,c,d,e\n").ok());
  EXPECT_FALSE(ParseTelemetryCsv("").ok());
  // The right column count with two wrong names.
  EXPECT_FALSE(
      ParseTelemetryCsv("server_id,timestamp_minutes,avg_cpu_pct,x,y\n").ok());
}

TEST(RecordsTest, ParseRejectsWrongArity) {
  std::string text = RecordsToCsvText({});
  text += "srv,5,1.0,0\n";  // 4 fields
  EXPECT_FALSE(ParseTelemetryCsv(text).ok());
  std::string text2 = RecordsToCsvText({});
  text2 += "srv,5,1.0,0,10,extra\n";
  EXPECT_FALSE(ParseTelemetryCsv(text2).ok());
}

TEST(RecordsTest, ParseRejectsMalformedNumbers) {
  std::string text = RecordsToCsvText({});
  text += "srv,notanumber,1.0,0,10\n";
  EXPECT_FALSE(ParseTelemetryCsv(text).ok());
}

TEST(RecordsTest, ParseRejectsNonFiniteCpu) {
  for (const char* cpu : {"nan", "inf", "-inf", "+1.0"}) {
    std::string text = RecordsToCsvText({});
    text += std::string("srv,5,") + cpu + ",0,10\n";
    EXPECT_TRUE(ParseTelemetryCsv(text).status().IsInvalid()) << cpu;
  }
}

TEST(RecordsTest, WriterPrintsFourDecimalsAndPlainIntegers) {
  TelemetryRecord r;
  r.server_id = "srv";
  r.timestamp = -5;
  r.avg_cpu = 12.34565;
  r.default_backup_start = 9223372036854775807;
  r.default_backup_end = 0;
  EXPECT_EQ(RecordsToCsvText({r}),
            "server_id,timestamp_minutes,avg_cpu_pct,default_backup_start,"
            "default_backup_end\n"
            "srv,-5,12.3456,9223372036854775807,0\n");
}

/// Rows grouped the one way the library groups telemetry: encoded to
/// SGB1, then streamed per server.
Result<std::vector<ServerTelemetry>> Grouped(
    const std::vector<TelemetryRecord>& records) {
  return DecodeTelemetryBlob(EncodeSeriesBlock(records));
}

TEST(RecordsTest, CsvRowReaderSplitsFieldsAndCountsLines) {
  CsvRowReader rows("a,b\r\n\n1,2,3,4,5\n\r\n1,2,3,4,5,6,7\n,");
  ASSERT_TRUE(rows.Next());
  EXPECT_EQ(rows.line_no(), 1u);
  EXPECT_EQ(rows.line(), "a,b");
  ASSERT_EQ(rows.field_count(), 2);
  EXPECT_EQ(rows.field(1), "b");
  ASSERT_TRUE(rows.Next());  // the empty line 2 is skipped, not renumbered
  EXPECT_EQ(rows.line_no(), 3u);
  ASSERT_EQ(rows.field_count(), 5);
  EXPECT_EQ(rows.field(4), "5");
  ASSERT_TRUE(rows.Next());  // so is the bare CR of line 4
  EXPECT_EQ(rows.line_no(), 5u);
  EXPECT_EQ(rows.field_count(), 6);  // more than five
  ASSERT_TRUE(rows.Next());  // an unterminated last line still counts
  EXPECT_EQ(rows.line_no(), 6u);
  ASSERT_EQ(rows.field_count(), 2);
  EXPECT_EQ(rows.field(0), "");
  EXPECT_EQ(rows.field(1), "");
  EXPECT_FALSE(rows.Next());
  EXPECT_FALSE(CsvRowReader("").Next());
}

TEST(RecordsTest, GroupingBuildsAlignedSeries) {
  auto grouped = Grouped(SampleRecords());
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->size(), 2u);
  const ServerTelemetry& a = (*grouped)[0];
  EXPECT_EQ(a.server_id, "srv-a");
  EXPECT_EQ(a.load.start(), 0);
  EXPECT_EQ(a.load.size(), 6);
  EXPECT_DOUBLE_EQ(a.load.ValueAt(0), 10.0);
  EXPECT_EQ(a.default_backup_start, 120);
  EXPECT_EQ(a.backup_duration_minutes(), 60);
  const ServerTelemetry& b = (*grouped)[1];
  EXPECT_EQ(b.load.size(), 1);
}

TEST(RecordsTest, GroupingHandlesGapsAndOrder) {
  std::vector<TelemetryRecord> records;
  for (int64_t t : {20, 0, 10}) {  // out of order, gap at 5 and 15
    TelemetryRecord r;
    r.server_id = "s";
    r.timestamp = t;
    r.avg_cpu = static_cast<double>(t);
    r.default_backup_start = 0;
    r.default_backup_end = 60;
    records.push_back(r);
  }
  auto grouped = Grouped(records);
  ASSERT_TRUE(grouped.ok());
  const LoadSeries& load = (*grouped)[0].load;
  EXPECT_EQ(load.size(), 5);
  EXPECT_DOUBLE_EQ(load.ValueAtTime(0), 0.0);
  EXPECT_TRUE(IsMissing(load.ValueAtTime(5)));
  EXPECT_DOUBLE_EQ(load.ValueAtTime(20), 20.0);
}

TEST(RecordsTest, GroupingRejectsOffGrid) {
  TelemetryRecord r;
  r.server_id = "s";
  r.timestamp = 7;
  EXPECT_TRUE(Grouped({r}).status().IsInvalid());
}

TEST(EmitterTest, DefaultBackupWindowInsideDay) {
  ServerProfile p;
  p.backup_day = DayOfWeek::kWednesday;
  p.default_backup_start_minute = 23 * 60;  // would overflow the day
  p.backup_duration_minutes = 120;
  MinuteStamp start = 0, end = 0;
  DefaultBackupWindow(p, 1, &start, &end);
  MinuteStamp day_start = kMinutesPerWeek + 2 * kMinutesPerDay;
  EXPECT_GE(start, day_start);
  EXPECT_LE(end, day_start + kMinutesPerDay);
  EXPECT_EQ(end - start, 120);
}

TEST(EmitterTest, ExtractWeekBlockHoldsOnlyPresentSamples) {
  RegionConfig config;
  config.name = "emit";
  config.num_servers = 5;
  config.weeks = 4;
  config.seed = 7;
  config.telemetry.missing_sample_rate = 0.1;
  Fleet fleet = Fleet::Generate(config);
  auto records = DecodeSeriesBlock(ExtractWeekBlock(fleet, 3));
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());
  for (const auto& r : *records) {
    EXPECT_FALSE(IsMissing(r.avg_cpu));
    EXPECT_GE(r.avg_cpu, 0.0);
    EXPECT_LE(r.avg_cpu, 100.0);
    EXPECT_EQ(r.timestamp % kServerIntervalMinutes, 0);
    EXPECT_LT(r.timestamp, 4 * kMinutesPerWeek);
    EXPECT_GT(r.default_backup_end, r.default_backup_start);
  }
}

TEST(EmitterTest, ExtractedBlockPrintsAsCsvAndGroups) {
  RegionConfig config;
  config.name = "emit2";
  config.num_servers = 3;
  config.weeks = 4;
  Fleet fleet = Fleet::Generate(config);
  const std::string block = ExtractWeekBlock(fleet, 3);
  auto decoded = DecodeSeriesBlock(block);
  ASSERT_TRUE(decoded.ok());
  auto records = ParseTelemetryCsv(RecordsToCsvText(*decoded));
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(EncodeSeriesBlock(*records), block);
  auto grouped = Grouped(*records);
  ASSERT_TRUE(grouped.ok());
  EXPECT_LE(grouped->size(), 3u);
  EXPECT_GE(grouped->size(), 1u);
}

}  // namespace
}  // namespace seagull
