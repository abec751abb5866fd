/// \file series_block_writer_test.cc
/// \brief The SGB1 encoder: its output bytes against the frozen
/// tests/golden/series_block_v1.json across adversarial inputs, the
/// two-pass protocol's misuse statuses, sink-failure propagation, and
/// the emitter-level two-pass fleet walk (`ExtractWeekBlockTo`) against
/// the rows walk in tests/reference/ plus its resident cost bound.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/strings.h"
#include "reference/telemetry_reference.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"
#include "telemetry/series_block.h"

namespace seagull {
namespace {

/// The encoder's bytes as frozen before it became the only encoder;
/// never regenerated from the code under test.
const Json& Golden() {
  static const Json doc = [] {
    const std::string path =
        std::string(SEAGULL_TEST_DATA_DIR) + "/golden/series_block_v1.json";
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = Json::Parse(buffer.str());
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    return parsed.ok() ? *parsed : Json::MakeObject();
  }();
  return doc;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

/// FNV-1a-64 over the whole blob (trailer included), as the golden
/// file records it — computed here, independently of the encoder.
std::string Fnv1aHex(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return StringPrintf("%016llx", static_cast<unsigned long long>(h));
}

/// Asserts `blob` has the golden byte size and digest in `row`.
void ExpectGoldenDigest(const std::string& blob, const Json& row,
                        const std::string& what) {
  EXPECT_EQ(static_cast<int64_t>(blob.size()), row["bytes"].AsInt())
      << what;
  EXPECT_EQ(Fnv1aHex(blob), row["fnv1a64"].AsString()) << what;
}

/// Sink that accumulates the blob for comparison.
SeriesBlockWriter::Sink CollectInto(std::string* out) {
  return [out](std::string_view bytes) {
    out->append(bytes.data(), bytes.size());
    return Status::OK();
  };
}

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

/// Random rows with gaps, several servers, *unquantized* values — the
/// golden bytes pin the encoder's quantization too.
std::vector<TelemetryRecord> RandomRecords(uint64_t seed) {
  Rng rng(seed);
  std::vector<TelemetryRecord> records;
  const int servers = static_cast<int>(rng.UniformInt(1, 6));
  for (int s = 0; s < servers; ++s) {
    TelemetryRecord base;
    base.server_id = StringPrintf("srv-%02d", s);
    base.default_backup_start = rng.UniformInt(0, 1000) * 5;
    base.default_backup_end =
        base.default_backup_start + rng.UniformInt(1, 24) * 5;
    const int64_t start = rng.UniformInt(0, 100) * 5;
    const int samples = static_cast<int>(rng.UniformInt(1, 200));
    for (int i = 0; i < samples; ++i) {
      if (rng.Chance(0.15)) continue;  // missing sample -> absent row
      TelemetryRecord r = base;
      r.timestamp = start + i * 5;
      r.avg_cpu = rng.Uniform(0.0, 100.0);
      records.push_back(std::move(r));
    }
  }
  return records;
}

std::string StreamedEncode(const std::vector<TelemetryRecord>& records) {
  std::string out;
  Status st = WriteSeriesBlockFromRecords(records, kServerIntervalMinutes,
                                          CollectInto(&out));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// srv-a's rows split around srv-b's, plus a later srv-a row with a new
/// backup window and a duplicate (server, timestamp) row.
std::vector<TelemetryRecord> InterleavedRecords() {
  std::vector<TelemetryRecord> records = SampleRecords();
  TelemetryRecord again = records[0];
  again.timestamp = 100;
  again.avg_cpu = 77.0;
  again.default_backup_start = 300;  // later row overrides the window
  again.default_backup_end = 360;
  records.push_back(again);
  TelemetryRecord dup = records[1];  // duplicate (server, timestamp)
  dup.avg_cpu = 99.0;
  records.push_back(dup);
  return records;
}

TelemetryRecord SingleSample() {
  TelemetryRecord r;
  r.server_id = "only";
  r.timestamp = 5;
  r.avg_cpu = 12.345678;  // quantizes through the writer
  r.default_backup_start = 0;
  r.default_backup_end = 60;
  return r;
}

TEST(SeriesBlockWriterTest, HandBuiltInputsReproduceGoldenBytes) {
  const Json& hex = Golden()["hex"];
  const std::vector<std::pair<const char*, std::vector<TelemetryRecord>>>
      cases = {{"sample_records", SampleRecords()},
               {"interleaved_duplicate_ids", InterleavedRecords()},
               {"single_sample", {SingleSample()}},
               {"empty", {}}};
  for (const auto& [name, records] : cases) {
    ASSERT_TRUE(hex.Contains(name)) << name;
    const std::string& golden = hex[name].AsString();
    EXPECT_EQ(Hex(EncodeSeriesBlock(records)), golden) << name;
    EXPECT_EQ(Hex(StreamedEncode(records)), golden) << name;
  }
}

TEST(SeriesBlockWriterTest, PropertyRandomRecordsReproduceGoldenDigests) {
  const Json::Array& rows = Golden()["random_records"].AsArray();
  ASSERT_EQ(rows.size(), 25u);
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const Json& row = rows[static_cast<size_t>(seed - 1)];
    ASSERT_EQ(row["seed"].AsInt(), static_cast<int64_t>(seed));
    auto records = RandomRecords(seed);
    ExpectGoldenDigest(EncodeSeriesBlock(records), row,
                       "encode seed " + std::to_string(seed));
    ExpectGoldenDigest(StreamedEncode(records), row,
                       "stream seed " + std::to_string(seed));
  }
}

TEST(SeriesBlockWriterTest, EmptyInputProducesTheCanonicalEmptyBlock) {
  const std::string streamed = StreamedEncode({});
  EXPECT_EQ(Hex(streamed), Golden()["hex"]["empty"].AsString());
  auto info = PeekSeriesBlock(streamed);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->server_count, 0);
  EXPECT_EQ(info->total_samples, 0);
}

TEST(SeriesBlockWriterTest, InterleavedIdsMergeInFirstAppearanceOrder) {
  // srv-a's rows split around srv-b's: groups are non-contiguous, so
  // the record front-end merges them (first-appearance order, per-server
  // row order kept, last row's backup window).
  const auto records = InterleavedRecords();
  const TelemetryRecord& last_a = records.back();  // srv-a's last row
  auto decoded = DecodeSeriesBlock(StreamedEncode(records));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 9u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*decoded)[i].server_id, "srv-a") << i;
    EXPECT_EQ((*decoded)[i].default_backup_start,
              last_a.default_backup_start)
        << i;
  }
  EXPECT_EQ((*decoded)[6].timestamp, 100);
  EXPECT_EQ((*decoded)[7].timestamp, 5);
  EXPECT_EQ((*decoded)[7].avg_cpu, 99.0);
  EXPECT_EQ((*decoded)[8].server_id, "srv-b");
}

TEST(SeriesBlockWriterTest, StreamedBlobDecodesAndSurvivesMutilation) {
  const auto records = SampleRecords();
  const std::string blob = StreamedEncode(records);
  auto decoded = DecodeSeriesBlock(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), records.size());

  // Truncations and bit flips of the *streamed* output must be caught
  // by the incrementally-folded checksum / structural checks.
  for (size_t cut : {size_t{0}, size_t{10}, size_t{35}, blob.size() / 2,
                     blob.size() - 1}) {
    EXPECT_FALSE(DecodeSeriesBlock(blob.substr(0, cut)).ok()) << cut;
  }
  for (size_t at : {size_t{0}, size_t{20}, blob.size() / 2,
                    blob.size() - 1}) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x5a);
    EXPECT_FALSE(DecodeSeriesBlock(bad).ok()) << at;
  }
}

TEST(SeriesBlockWriterTest, ZeroCountDeclarationsAreDropped) {
  std::string manual;
  SeriesBlockWriter writer(CollectInto(&manual));
  ASSERT_TRUE(writer.Declare("ghost", 0, 0, 60).ok());
  ASSERT_TRUE(writer.Finish().ok());
  // A fleet of only empty servers is byte-identical to no fleet at all.
  EXPECT_EQ(Hex(manual), Golden()["hex"]["empty"].AsString());
}

TEST(SeriesBlockWriterTest, ManualProtocolMatchesEncoder) {
  const auto records = SampleRecords();  // srv-a x6 rows, srv-b x1
  std::string manual;
  SeriesBlockWriter writer(CollectInto(&manual));
  ASSERT_TRUE(writer.Declare("srv-a", 6, 120, 180).ok());
  ASSERT_TRUE(writer.Declare("srv-b", 1, 600, 660).ok());
  ASSERT_TRUE(writer.StartAppend().ok());
  for (const TelemetryRecord& r : records) {
    ASSERT_TRUE(writer.Append(r.server_id, r.timestamp, r.avg_cpu).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(Hex(manual), Golden()["hex"]["sample_records"].AsString());
  EXPECT_EQ(writer.bytes_written(), static_cast<int64_t>(manual.size()));
}

TEST(SeriesBlockWriterTest, ProtocolMisuseIsRejected) {
  std::string out;
  {
    SeriesBlockWriter writer(CollectInto(&out));
    ASSERT_TRUE(writer.Declare("a", 1, 0, 60).ok());
    EXPECT_FALSE(writer.Declare("a", 2, 0, 60).ok());  // duplicate id
  }
  {
    SeriesBlockWriter writer(CollectInto(&out));
    ASSERT_TRUE(writer.Declare("a", 1, 0, 60).ok());
    EXPECT_FALSE(writer.Append("a", 0, 1.0).ok());  // before StartAppend
  }
  {
    SeriesBlockWriter writer(CollectInto(&out));
    ASSERT_TRUE(writer.Declare("a", 1, 0, 60).ok());
    ASSERT_TRUE(writer.StartAppend().ok());
    EXPECT_FALSE(writer.Declare("b", 1, 0, 60).ok());  // declare too late
  }
  {
    SeriesBlockWriter writer(CollectInto(&out));
    ASSERT_TRUE(writer.Declare("a", 1, 0, 60).ok());
    ASSERT_TRUE(writer.StartAppend().ok());
    EXPECT_FALSE(writer.Append("b", 0, 1.0).ok());  // out of order
  }
  {
    SeriesBlockWriter writer(CollectInto(&out));
    ASSERT_TRUE(writer.Declare("a", 1, 0, 60).ok());
    ASSERT_TRUE(writer.StartAppend().ok());
    ASSERT_TRUE(writer.Append("a", 0, 1.0).ok());
    EXPECT_FALSE(writer.Append("a", 5, 1.0).ok());  // past declared count
  }
  {
    SeriesBlockWriter writer(CollectInto(&out));
    ASSERT_TRUE(writer.Declare("a", 2, 0, 60).ok());
    ASSERT_TRUE(writer.StartAppend().ok());
    ASSERT_TRUE(writer.Append("a", 0, 1.0).ok());
    EXPECT_FALSE(writer.Finish().ok());  // undelivered samples
  }
}

TEST(SeriesBlockWriterTest, SinkErrorAbortsTheWrite) {
  int64_t budget = 40;  // enough for the header, not the columns
  SeriesBlockWriter writer([&](std::string_view bytes) {
    budget -= static_cast<int64_t>(bytes.size());
    if (budget < 0) return Status::IOError("sink full");
    return Status::OK();
  });
  ASSERT_TRUE(writer.Declare("a", 100, 0, 60).ok());
  Status st = writer.StartAppend();
  // The directory overflows the budget either here or on a later
  // append; once failed, the writer stays failed.
  for (int i = 0; st.ok() && i < 100; ++i) {
    st = writer.Append("a", i * 5, 1.0);
  }
  if (st.ok()) st = writer.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(writer.Finish().ok());  // sticky failure
}

Fleet StreamFleet() {
  RegionConfig config;
  config.name = "stream";
  config.num_servers = 8;
  config.weeks = 4;
  config.seed = 11;
  config.telemetry.missing_sample_rate = 0.05;
  return Fleet::Generate(config);
}

TEST(SeriesBlockWriterTest, ExtractWeekBlockToMatchesRecordsEncoder) {
  // The two-pass fleet walk (sizing pass, then regenerate-and-append)
  // against the rows walk grouped by `WriteSeriesBlockFromRecords`,
  // the oracle the fleet walk replaced.
  Fleet fleet = StreamFleet();
  for (int64_t week : {int64_t{1}, int64_t{3}}) {
    std::string streamed;
    int64_t peak = 0;
    ASSERT_TRUE(
        ExtractWeekBlockTo(fleet, week, CollectInto(&streamed), &peak).ok());
    const std::string reference =
        EncodeSeriesBlock(reference::ExtractWeekRows(fleet, week));
    EXPECT_EQ(streamed, reference) << "week " << week;
    EXPECT_GT(peak, 0);
  }
}

TEST(SeriesBlockWriterTest, ExtractWeekBlockToReproducesGoldenDigests) {
  Fleet fleet = StreamFleet();
  const Json::Array& rows = Golden()["extract_week_block"].AsArray();
  ASSERT_EQ(rows.size(), 2u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t week = rows[i]["week"].AsInt();
    std::string streamed;
    ASSERT_TRUE(ExtractWeekBlockTo(fleet, week, CollectInto(&streamed)).ok());
    ExpectGoldenDigest(streamed, rows[i], "week " + std::to_string(week));
  }
}

TEST(SeriesBlockWriterTest, ResidentCostStaysUnderTheBlobAtScale) {
  // The streaming claim only bites once the timestamp column exceeds
  // the 256 KB chunk (below that nothing ever flushes early): at 64
  // servers the blob is ~2 MB and the writer must hold roughly the
  // value column plus one chunk — well under the whole blob.
  RegionConfig config;
  config.name = "resident";
  config.num_servers = 64;
  config.weeks = 4;
  config.seed = 17;
  Fleet fleet = Fleet::Generate(config);
  std::string streamed;
  int64_t peak = 0;
  ASSERT_TRUE(
      ExtractWeekBlockTo(fleet, 3, CollectInto(&streamed), &peak).ok());
  EXPECT_EQ(streamed, EncodeSeriesBlock(reference::ExtractWeekRows(fleet, 3)));
  EXPECT_GT(peak, 0);
  EXPECT_LT(peak, static_cast<int64_t>(streamed.size() * 3 / 4));
}

}  // namespace
}  // namespace seagull
