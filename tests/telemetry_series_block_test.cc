/// \file telemetry_series_block_test.cc
/// \brief SGB1 decode: record round trips, the streaming cursor checked
/// against the row-by-row grouping in tests/reference/ (over the
/// decoded rows) as an independent oracle, and rejection of mutilated
/// or hostile blobs all the way up to the ingestion module.

#include "telemetry/series_block.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "pipeline/ingestion.h"
#include "reference/telemetry_reference.h"
#include "store/lake_store.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"

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

/// Random rows with gaps, several servers, quantized values — the data
/// shape the emitter produces, but adversarially scrambled per seed.
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
      r.avg_cpu = QuantizeFixed4(rng.Uniform(0.0, 100.0));
      records.push_back(std::move(r));
    }
  }
  return records;
}

/// Streams a blob through the cursor into grouped per-server form —
/// the subject of every equivalence check below.
Result<std::vector<ServerTelemetry>> StreamAll(const std::string& blob) {
  SEAGULL_ASSIGN_OR_RETURN(SeriesBlockCursor cursor,
                           SeriesBlockCursor::Open(std::string_view(blob)));
  std::vector<ServerTelemetry> out;
  SEAGULL_RETURN_NOT_OK(
      StreamSeriesBlockServers(cursor, [&](ServerTelemetry&& st) {
        out.push_back(std::move(st));
        return Status::OK();
      }));
  return out;
}

/// The oracle: decode to flat rows, then group them row by row.
Result<std::vector<ServerTelemetry>> GroupedRecords(const std::string& blob) {
  SEAGULL_ASSIGN_OR_RETURN(auto records, DecodeSeriesBlock(blob));
  return reference::GroupByServer(records);
}

TEST(SeriesBlockTest, SniffsMagic) {
  auto records = SampleRecords();
  EXPECT_TRUE(IsSeriesBlock(EncodeSeriesBlock(records)));
  EXPECT_FALSE(IsSeriesBlock(RecordsToCsvText(records)));
  EXPECT_FALSE(IsSeriesBlock(""));
  EXPECT_FALSE(IsSeriesBlock("SGB"));
}

TEST(SeriesBlockTest, PeekReadsHeader) {
  auto records = SampleRecords();
  auto info = PeekSeriesBlock(EncodeSeriesBlock(records));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->interval_minutes, kServerIntervalMinutes);
  EXPECT_EQ(info->server_count, 2);
  EXPECT_EQ(info->total_samples, static_cast<int64_t>(records.size()));
}

TEST(SeriesBlockTest, RecordRoundTripIsExact) {
  auto records = SampleRecords();
  auto back = DecodeSeriesBlock(EncodeSeriesBlock(records));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*back)[i].server_id, records[i].server_id);
    EXPECT_EQ((*back)[i].timestamp, records[i].timestamp);
    // Values were integral+fraction representable at 1e-4; quantization
    // through "%.4f" reproduces them bit-exactly.
    EXPECT_EQ((*back)[i].avg_cpu, QuantizeFixed4(records[i].avg_cpu));
    EXPECT_EQ((*back)[i].default_backup_start,
              records[i].default_backup_start);
    EXPECT_EQ((*back)[i].default_backup_end, records[i].default_backup_end);
  }
}

TEST(SeriesBlockTest, PropertyRandomFleetsRoundTripByteIdentically) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto records = RandomRecords(seed);
    if (records.empty()) continue;
    const std::string blob = EncodeSeriesBlock(records);
    auto decoded = DecodeSeriesBlock(blob);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed;
    // Re-encoding the decoded rows must reproduce the exact bytes:
    // the format is canonical for server-major row order.
    EXPECT_EQ(EncodeSeriesBlock(*decoded), blob) << "seed " << seed;
    // And the CSV written from the decoded rows parses back to rows
    // that encode to the same block: CSV <-> block is lossless.
    auto via_csv = ParseTelemetryCsv(RecordsToCsvText(*decoded));
    ASSERT_TRUE(via_csv.ok()) << "seed " << seed;
    EXPECT_EQ(EncodeSeriesBlock(*via_csv), blob) << "seed " << seed;
  }
}

TEST(SeriesBlockTest, StreamedServersMatchGroupedInputRows) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto records = RandomRecords(seed);
    if (records.empty()) continue;
    auto grouped = reference::GroupByServer(records);
    ASSERT_TRUE(grouped.ok()) << "seed " << seed;
    auto direct = StreamAll(EncodeSeriesBlock(records));
    ASSERT_TRUE(direct.ok()) << "seed " << seed;
    ASSERT_EQ(direct->size(), grouped->size()) << "seed " << seed;
    for (size_t i = 0; i < grouped->size(); ++i) {
      const auto& g = (*grouped)[i];
      const auto& d = (*direct)[i];
      EXPECT_EQ(d.server_id, g.server_id);
      EXPECT_EQ(d.default_backup_start, g.default_backup_start);
      EXPECT_EQ(d.default_backup_end, g.default_backup_end);
      EXPECT_EQ(d.load.start(), g.load.start());
      ASSERT_EQ(d.load.size(), g.load.size());
      for (int64_t j = 0; j < g.load.size(); ++j) {
        if (g.load.MissingAt(j)) {
          EXPECT_TRUE(d.load.MissingAt(j));
        } else {
          // Bit-exact: both paths carry the quantized value.
          EXPECT_EQ(d.load.ValueAt(j),
                    QuantizeFixed4(g.load.ValueAt(j)));
        }
      }
    }
  }
}

TEST(SeriesBlockTest, EmitterBlockSurvivesCsvRoundTrip) {
  RegionConfig config;
  config.name = "blk";
  config.num_servers = 8;
  config.weeks = 4;
  config.seed = 11;
  config.telemetry.missing_sample_rate = 0.05;
  Fleet fleet = Fleet::Generate(config);
  const std::string block = ExtractWeekBlock(fleet, 3);
  auto from_block = StreamAll(block);
  ASSERT_TRUE(from_block.ok());
  // The transcode round trip: the block printed as CSV parses back to
  // rows that encode to the very same bytes.
  auto rows = DecodeSeriesBlock(block);
  ASSERT_TRUE(rows.ok());
  auto from_csv = ParseTelemetryCsv(RecordsToCsvText(*rows));
  ASSERT_TRUE(from_csv.ok());
  EXPECT_EQ(EncodeSeriesBlock(*from_csv), block);
  // And the fleet's own rows, grouped row by row, are what the block
  // streams (the CSV text quantizes them as the block does).
  auto reference_csv = ParseTelemetryCsv(
      RecordsToCsvText(reference::ExtractWeekRows(fleet, 3)));
  ASSERT_TRUE(reference_csv.ok());
  auto grouped = reference::GroupByServer(*reference_csv);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(from_block->size(), grouped->size());
  for (size_t i = 0; i < grouped->size(); ++i) {
    const auto& c = (*grouped)[i];
    const auto& b = (*from_block)[i];
    EXPECT_EQ(b.server_id, c.server_id);
    ASSERT_EQ(b.load.size(), c.load.size());
    for (int64_t j = 0; j < c.load.size(); ++j) {
      if (c.load.MissingAt(j)) {
        EXPECT_TRUE(b.load.MissingAt(j));
      } else {
        // The CSV parse quantizes; the block stores pre-quantized.
        EXPECT_EQ(b.load.ValueAt(j), c.load.ValueAt(j));
      }
    }
  }
}

TEST(SeriesBlockTest, DuplicateTimestampsKeepLastValue) {
  std::vector<TelemetryRecord> records = SampleRecords();
  TelemetryRecord dup = records[1];  // srv-a, t=5
  dup.avg_cpu = 99.0;
  records.push_back(dup);
  auto direct = StreamAll(EncodeSeriesBlock(records));
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ((*direct)[0].load.ValueAtTime(5), 99.0);
}

TEST(SeriesBlockTest, RejectsOffGridTimestamps) {
  TelemetryRecord r;
  r.server_id = "s";
  r.timestamp = 7;
  r.avg_cpu = 1.0;
  auto decoded = StreamAll(EncodeSeriesBlock({r}));
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("off the"), std::string::npos);
}

TEST(SeriesBlockTest, RejectsCorruptAndTruncatedBlobs) {
  const std::string blob = EncodeSeriesBlock(SampleRecords());

  // Truncation at every interesting boundary.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{10}, size_t{35},
                     blob.size() / 2, blob.size() - 1}) {
    EXPECT_FALSE(PeekSeriesBlock(blob.substr(0, cut)).ok()) << cut;
    EXPECT_FALSE(DecodeSeriesBlock(blob.substr(0, cut)).ok()) << cut;
    EXPECT_FALSE(StreamAll(blob.substr(0, cut)).ok()) << cut;
  }

  // Any single flipped byte breaks either the magic or the checksum.
  for (size_t at : {size_t{0}, size_t{5}, size_t{20}, blob.size() / 2,
                    blob.size() - 1}) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x5a);
    EXPECT_FALSE(DecodeSeriesBlock(bad).ok()) << at;
  }

  // Bad version: patch byte 4 and re-stamp... without a valid checksum
  // it must be rejected either way.
  std::string bad_version = blob;
  bad_version[4] = 9;
  EXPECT_FALSE(PeekSeriesBlock(bad_version).ok());

  // Not a block at all.
  EXPECT_FALSE(DecodeSeriesBlock("hello world, not a block").ok());
}

TEST(SeriesBlockTest, QuantizerIsIdempotent) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(0.0, 100.0);
    const double q = QuantizeFixed4(v);
    EXPECT_EQ(q, QuantizeFixed4(q));
    EXPECT_NEAR(q, v, 5e-5);
  }
}

/// Bit-exact comparison of two grouped decodes (NaN missing slots
/// compare via MissingAt, present values via exact equality).
void ExpectSameServers(const std::vector<ServerTelemetry>& a,
                       const std::vector<ServerTelemetry>& b,
                       uint64_t seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].server_id, b[i].server_id) << "seed " << seed;
    EXPECT_EQ(a[i].default_backup_start, b[i].default_backup_start);
    EXPECT_EQ(a[i].default_backup_end, b[i].default_backup_end);
    EXPECT_EQ(a[i].load.start(), b[i].load.start());
    ASSERT_EQ(a[i].load.size(), b[i].load.size()) << "seed " << seed;
    for (int64_t j = 0; j < a[i].load.size(); ++j) {
      if (a[i].load.MissingAt(j)) {
        EXPECT_TRUE(b[i].load.MissingAt(j)) << "seed " << seed;
      } else {
        EXPECT_EQ(a[i].load.ValueAt(j), b[i].load.ValueAt(j))
            << "seed " << seed;
      }
    }
  }
}

TEST(SeriesBlockCursorTest, PropertyStreamMatchesGroupedRecordDecode) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto records = RandomRecords(seed);
    if (records.empty()) continue;
    const std::string blob = EncodeSeriesBlock(records);
    auto reference = GroupedRecords(blob);
    ASSERT_TRUE(reference.ok()) << "seed " << seed;
    auto streamed = StreamAll(blob);
    ASSERT_TRUE(streamed.ok()) << "seed " << seed;
    ExpectSameServers(*reference, *streamed, seed);
  }
}

TEST(SeriesBlockCursorTest, TruncatedAndCorruptBlobsMatchReferenceStatus) {
  // On every mutilated input the streaming path must fail exactly when
  // the record decode + grouping fails, with the same status text —
  // error parity is part of the equivalence contract.
  const std::string blob = EncodeSeriesBlock(SampleRecords());
  auto status_of = [](const Result<std::vector<ServerTelemetry>>& r) {
    return r.ok() ? std::string("ok") : r.status().ToString();
  };
  for (size_t cut : {size_t{0}, size_t{3}, size_t{10}, size_t{35},
                     blob.size() / 2, blob.size() - 1}) {
    const std::string bad = blob.substr(0, cut);
    EXPECT_EQ(status_of(GroupedRecords(bad)), status_of(StreamAll(bad)))
        << "cut " << cut;
    EXPECT_FALSE(StreamAll(bad).ok()) << "cut " << cut;
  }
  for (size_t at = 0; at < blob.size(); at += 7) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x5a);
    EXPECT_EQ(status_of(GroupedRecords(bad)), status_of(StreamAll(bad)))
        << "flip " << at;
  }
}

TEST(SeriesBlockCursorTest, OffGridTimestampFailsLikeReference) {
  TelemetryRecord r;
  r.server_id = "s";
  r.timestamp = 7;
  r.avg_cpu = 1.0;
  const std::string blob = EncodeSeriesBlock({r});
  auto reference = GroupedRecords(blob);
  auto streamed = StreamAll(blob);
  ASSERT_FALSE(reference.ok());
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(reference.status().ToString(), streamed.status().ToString());
}

TEST(SeriesBlockCursorTest, DuplicateTimestampsKeepLastValueWhenStreamed) {
  std::vector<TelemetryRecord> records = SampleRecords();
  TelemetryRecord dup = records[1];  // srv-a, t=5
  dup.avg_cpu = 99.0;
  records.push_back(dup);
  // Interleave a second server between the duplicates so the directory
  // carries srv-a out of contiguous row order.
  auto streamed = StreamAll(EncodeSeriesBlock(records));
  ASSERT_TRUE(streamed.ok());
  EXPECT_DOUBLE_EQ((*streamed)[0].load.ValueAtTime(5), 99.0);
  auto reference = GroupedRecords(EncodeSeriesBlock(records));
  ASSERT_TRUE(reference.ok());
  ExpectSameServers(*reference, *streamed, 0);
}

TEST(SeriesBlockCursorTest, ColumnsAliasTheBlobBytes) {
  // Zero-copy means the views point INTO the blob: every column's
  // backing bytes must lie inside [data, data+size) of the very string
  // the cursor was opened on.
  auto records = SampleRecords();
  const std::string blob = EncodeSeriesBlock(records);
  auto cursor = SeriesBlockCursor::Open(std::string_view(blob));
  ASSERT_TRUE(cursor.ok());
  ASSERT_GT(cursor->size(), 0);
  for (int64_t i = 0; i < cursor->size(); ++i) {
    SeriesBlockServerView view = cursor->Entry(i);
    const char* begin = blob.data();
    const char* end = blob.data() + blob.size();
    EXPECT_GE(view.timestamps.bytes(), begin);
    EXPECT_LE(view.timestamps.bytes() + view.timestamps.size() * 8, end);
    EXPECT_GE(view.values.bytes(), begin);
    EXPECT_LE(view.values.bytes() + view.values.size() * 8, end);
    EXPECT_GE(view.server_id.data(), begin);
    EXPECT_LE(view.server_id.data() + view.server_id.size(), end);
  }
}

TEST(SeriesBlockCursorTest, BlobRefOpenPinsTheBlobPastCallerRelease) {
  // The pinning contract: a cursor opened on a `BlobRef` keeps the
  // bytes alive even after every other owner drops its reference, so
  // a replace or delete of the blob mid-decode is harmless.
  auto records = SampleRecords();
  auto blob = std::make_shared<const std::string>(
      EncodeSeriesBlock(records));
  auto cursor = SeriesBlockCursor::Open(BlobRef(*blob, blob));
  ASSERT_TRUE(cursor.ok());
  std::weak_ptr<const std::string> watch = blob;
  blob.reset();  // the cursor is now the sole owner
  EXPECT_FALSE(watch.expired());
  std::vector<ServerTelemetry> out;
  ASSERT_TRUE(StreamSeriesBlockServers(*cursor, [&](ServerTelemetry&& st) {
                out.push_back(std::move(st));
                return Status::OK();
              }).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].server_id, "srv-a");
}

TEST(SeriesBlockCursorTest, OpenRejectsEmptyBlobRef) {
  EXPECT_FALSE(SeriesBlockCursor::Open(BlobRef()).ok());
}

TEST(SeriesBlockCursorTest, NextWalksDirectoryOrderAndRewinds) {
  auto records = SampleRecords();
  const std::string blob = EncodeSeriesBlock(records);
  auto cursor = SeriesBlockCursor::Open(std::string_view(blob));
  ASSERT_TRUE(cursor.ok());
  std::vector<std::string> first_pass, second_pass;
  SeriesBlockServerView view;
  while (cursor->Next(&view)) {
    first_pass.emplace_back(view.server_id);
  }
  EXPECT_EQ(first_pass.size(), static_cast<size_t>(cursor->size()));
  cursor->Rewind();
  while (cursor->Next(&view)) {
    second_pass.emplace_back(view.server_id);
  }
  EXPECT_EQ(first_pass, second_pass);
}

TEST(SeriesBlockCursorTest, CallbackErrorStopsTheStream) {
  auto records = SampleRecords();  // two servers
  const std::string blob = EncodeSeriesBlock(records);
  auto cursor = SeriesBlockCursor::Open(std::string_view(blob));
  ASSERT_TRUE(cursor.ok());
  int delivered = 0;
  Status st = StreamSeriesBlockServers(*cursor, [&](ServerTelemetry&&) {
    ++delivered;
    return Status::Invalid("stop here");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("stop here"), std::string::npos);
  EXPECT_EQ(delivered, 1);
}

TEST(SeriesBlockTest, DecodeTelemetryBlobReadsSgb1AndRejectsCsv) {
  auto records = SampleRecords();
  auto from_block = DecodeTelemetryBlob(EncodeSeriesBlock(records));
  ASSERT_TRUE(from_block.ok());
  auto grouped = reference::GroupByServer(records);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(from_block->size(), grouped->size());
  for (size_t i = 0; i < grouped->size(); ++i) {
    EXPECT_EQ((*from_block)[i].server_id, (*grouped)[i].server_id);
  }
  // SGB1 is the only telemetry format: the same rows as CSV are Invalid,
  // and the status names the format.
  Status csv = DecodeTelemetryBlob(RecordsToCsvText(records)).status();
  EXPECT_TRUE(csv.IsInvalid()) << csv.ToString();
  EXPECT_NE(csv.ToString().find("not a SeriesBlock"), std::string::npos)
      << csv.ToString();
  EXPECT_FALSE(DecodeTelemetryBlob("garbage").ok());
}

/// SGB1's trailer hash, written out independently of the library: FNV-1a
/// with the 64-bit prime, over the format's offset basis
/// 1469598103934665603 (not the standard 14695981039346656037).
uint64_t TrailerHash(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void PutLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// A version-1 header with the given counts.
std::string HostileHeader(int64_t server_count, int64_t total_samples) {
  std::string blob = "SGB1";
  PutLE(&blob, 1, 4);  // version
  PutLE(&blob, 0, 4);  // reserved
  PutLE(&blob, static_cast<uint64_t>(kServerIntervalMinutes), 8);
  PutLE(&blob, static_cast<uint64_t>(server_count), 8);
  PutLE(&blob, static_cast<uint64_t>(total_samples), 8);
  return blob;
}

void PutEntry(std::string* blob, std::string_view id, int64_t samples) {
  PutLE(blob, id.size(), 4);
  blob->append(id);
  PutLE(blob, 0, 8);   // backup start
  PutLE(blob, 60, 8);  // backup end
  PutLE(blob, static_cast<uint64_t>(samples), 8);
}

/// Appends the trailer anyone can compute: the checksum proves nothing
/// about the counts it covers.
std::string Sealed(std::string blob) {
  PutLE(&blob, TrailerHash(blob), 8);
  return blob;
}

/// Header-only blob claiming 2^40 servers: sized naively, the directory
/// reservation alone is tens of terabytes.
std::string HugeServerCountBlob() {
  return Sealed(HostileHeader(int64_t{1} << 40, 0));
}

/// One real directory entry whose sample count (and the header's total)
/// is 2^60: 16 bytes per sample wraps the naive column-size product to
/// zero, and the column base pointer overflows.
std::string HugeSampleCountBlob() {
  std::string blob = HostileHeader(1, int64_t{1} << 60);
  PutEntry(&blob, "s", int64_t{1} << 60);
  return Sealed(std::move(blob));
}

/// Two entries whose counts each exceed the header's total: summing
/// them naively overflows a signed 64-bit integer.
std::string OverlongEntryBlob() {
  std::string blob = HostileHeader(2, 1);
  PutEntry(&blob, "a", INT64_MAX);
  PutEntry(&blob, "b", 2);
  return Sealed(std::move(blob));
}

TEST(SeriesBlockHostileTest, HeaderCountsAreBoundedByTheBlobSize) {
  ASSERT_EQ(HugeServerCountBlob().size(), 44u);
  ASSERT_EQ(HugeSampleCountBlob().size(), 73u);
  for (const std::string& blob :
       {HugeServerCountBlob(), HugeSampleCountBlob(), OverlongEntryBlob()}) {
    ASSERT_TRUE(IsSeriesBlock(blob));
    EXPECT_TRUE(PeekSeriesBlock(blob).status().IsInvalid()) << blob.size();
    EXPECT_TRUE(SeriesBlockCursor::Open(std::string_view(blob))
                    .status()
                    .IsInvalid())
        << blob.size();
    EXPECT_TRUE(DecodeSeriesBlock(blob).status().IsInvalid()) << blob.size();
    EXPECT_TRUE(DecodeTelemetryBlob(blob).status().IsInvalid())
        << blob.size();
  }
}

TEST(SeriesBlockHostileTest, IngestionFailsWithAnIncident) {
  for (const std::string& blob : {HugeServerCountBlob(), HugeSampleCountBlob()}) {
    auto lake = LakeStore::OpenTemporary("hostile");
    ASSERT_TRUE(lake.ok());
    ASSERT_TRUE(lake->Put(LakeStore::TelemetryKey("r", 3), blob).ok());
    PipelineContext ctx;
    ctx.region = "r";
    ctx.week = 3;
    ctx.lake = &*lake;
    DataIngestionModule ingestion;
    EXPECT_FALSE(ingestion.Run(&ctx).ok()) << blob.size();
    ASSERT_EQ(ctx.incidents.size(), 1u) << blob.size();
    EXPECT_EQ(ctx.incidents[0].module, "ingestion");
    EXPECT_EQ(ctx.incidents[0].severity, IncidentSeverity::kError);
    EXPECT_TRUE(ctx.servers.empty());
  }
}

}  // namespace
}  // namespace seagull
