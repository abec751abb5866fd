#include "telemetry/azure_trace.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "pipeline/pipeline.h"
#include "store/lake_store.h"
#include "telemetry/series_block.h"

namespace seagull {
namespace {

/// Builds a synthetic trace in the Azure Public Dataset format: two VMs,
/// one day of 300-second readings.
std::string SampleTrace(bool with_header = true) {
  std::string text;
  if (with_header) text += "timestamp,vm_id,min_cpu,max_cpu,avg_cpu\n";
  for (int64_t tick = 0; tick < 288; ++tick) {
    int64_t seconds = tick * 300;
    double load_a = tick < 48 ? 5.0 : 40.0;  // nightly valley
    double load_b = 20.0;
    text += StringPrintf("%lld,vm-a,%.1f,%.1f,%.2f\n",
                         static_cast<long long>(seconds), load_a - 1,
                         load_a + 1, load_a);
    text += StringPrintf("%lld,vm-b,%.1f,%.1f,%.2f\n",
                         static_cast<long long>(seconds), load_b - 1,
                         load_b + 1, load_b);
  }
  return text;
}

/// The trace transcoded to SGB1 and decoded back to grouped servers,
/// as every caller that wants servers reads it.
Result<std::vector<ServerTelemetry>> ImportServers(const std::string& text) {
  SEAGULL_ASSIGN_OR_RETURN(std::string blob, ImportAzureVmTrace(text));
  return DecodeTelemetryBlob(blob);
}

TEST(AzureTraceTest, ImportsAndGroups) {
  auto servers = ImportServers(SampleTrace());
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  ASSERT_EQ(servers->size(), 2u);
  const ServerTelemetry& a = (*servers)[0];
  EXPECT_EQ(a.server_id, "vm-a");
  EXPECT_EQ(a.load.interval_minutes(), kServerIntervalMinutes);
  EXPECT_EQ(a.load.size(), 288);
  EXPECT_DOUBLE_EQ(a.load.ValueAt(0), 5.0);
  EXPECT_DOUBLE_EQ(a.load.ValueAt(100), 40.0);
  // Synthetic backup metadata attached: 02:00 of the VM's first day.
  EXPECT_EQ(a.default_backup_start, 2 * kMinutesPerHour);
  EXPECT_EQ(a.backup_duration_minutes(), 60);
}

TEST(AzureTraceTest, BackupWindowFollowsEachVmsFirstDay) {
  // vm-late's first reading, listed after its later ones, is on day 2.
  const std::string trace =
      "259200,vm-late,0,0,5\n"
      "172800,vm-late,0,0,5\n"
      "300,vm-early,0,0,5\n";
  auto servers = ImportServers(trace);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  ASSERT_EQ(servers->size(), 2u);
  EXPECT_EQ((*servers)[0].server_id, "vm-early");
  EXPECT_EQ((*servers)[0].default_backup_start, 2 * kMinutesPerHour);
  EXPECT_EQ((*servers)[1].server_id, "vm-late");
  EXPECT_EQ((*servers)[1].default_backup_start,
            2 * kMinutesPerDay + 2 * kMinutesPerHour);
  EXPECT_EQ((*servers)[1].backup_duration_minutes(), 60);
}

TEST(AzureTraceTest, HeaderOptional) {
  auto servers = ImportServers(SampleTrace(/*with_header=*/false));
  ASSERT_TRUE(servers.ok());
  EXPECT_EQ(servers->size(), 2u);
}

TEST(AzureTraceTest, DropsOutOfRangeRows) {
  std::string trace = SampleTrace();
  trace += "86400,vm-a,0,0,250.0\n";  // absurd utilization
  auto servers = ImportServers(trace);
  ASSERT_TRUE(servers.ok());
  // The bad sample is absent.
  EXPECT_TRUE(IsMissing((*servers)[0].load.ValueAtTime(86400 / 60)));
}

TEST(AzureTraceTest, RejectsMalformedRows) {
  EXPECT_FALSE(ImportAzureVmTrace("").ok());
  EXPECT_FALSE(ImportAzureVmTrace("300,vm,1,2\n").ok());          // 4 fields
  EXPECT_FALSE(ImportAzureVmTrace("300,vm,1,2,3,4\n").ok());      // 6 fields
  EXPECT_FALSE(ImportAzureVmTrace("301,vm,1,2,3\n").ok());        // cadence
  EXPECT_FALSE(ImportAzureVmTrace("x,vm,1,2,3\ny,vm,1,2,3\n").ok());
}

TEST(AzureTraceTest, ImportIsTheCanonicalSeriesBlock) {
  // The importer's blob is what the SGB1 encoder writes for the trace's
  // rows: decoding it to rows and re-encoding reproduces every byte, and
  // one directory entry holds each VM.
  auto blob = ImportAzureVmTrace(SampleTrace());
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto info = PeekSeriesBlock(*blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->server_count, 2);
  EXPECT_EQ(info->total_samples, 2 * 288);
  auto rows = DecodeSeriesBlock(*blob);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(EncodeSeriesBlock(*rows), *blob);
}

TEST(AzureTraceTest, ValuesAreQuantizedLikeEverySeriesBlockValue) {
  auto servers = ImportServers("300,vm,0,0,12.345678\n");
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  EXPECT_EQ((*servers)[0].load.ValueAt(0), QuantizeFixed4(12.345678));
}

TEST(AzureTraceTest, ImportedTraceRunsThroughThePipeline) {
  // Build a 4-week trace for a handful of VMs and run the full pipeline
  // on it — real-data onboarding end to end.
  std::string text = "timestamp,vm_id,min_cpu,max_cpu,avg_cpu\n";
  for (int64_t tick = 0; tick < 4 * 7 * 288; ++tick) {
    int64_t seconds = tick * 300;
    double load = 15.0 + (tick % 288 < 60 ? -10.0 : 10.0);
    for (int vm = 0; vm < 5; ++vm) {
      text += StringPrintf("%lld,trace-vm-%d,0,0,%.2f\n",
                           static_cast<long long>(seconds), vm,
                           load + vm);
    }
  }
  auto blob = ImportAzureVmTrace(text);
  ASSERT_TRUE(blob.ok());

  auto lake = LakeStore::OpenTemporary("azure-trace");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake->Put(LakeStore::TelemetryKey("trace", 3), *blob).ok());
  DocStore docs;
  PipelineContext ctx;
  ctx.region = "trace";
  ctx.week = 3;
  ctx.lake = &*lake;
  ctx.docs = &docs;
  Pipeline pipeline = Pipeline::Standard();
  PipelineRunReport report = pipeline.Run(&ctx);
  EXPECT_TRUE(report.success) << report.failure;
  EXPECT_EQ(ctx.servers.size(), 5u);
  // The flat-with-valley VMs classify stable and are predictable.
  EXPECT_GT(ctx.stats["accuracy.predictable"], 0.0);
}

}  // namespace
}  // namespace seagull
