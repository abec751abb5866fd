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

TEST(AzureTraceTest, ImportsAndGroups) {
  auto servers = ImportAzureVmTrace(SampleTrace());
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  ASSERT_EQ(servers->size(), 2u);
  const ServerTelemetry& a = (*servers)[0];
  EXPECT_EQ(a.server_id, "vm-a");
  EXPECT_EQ(a.load.interval_minutes(), kServerIntervalMinutes);
  EXPECT_EQ(a.load.size(), 288);
  EXPECT_DOUBLE_EQ(a.load.ValueAt(0), 5.0);
  EXPECT_DOUBLE_EQ(a.load.ValueAt(100), 40.0);
  // Synthetic backup metadata attached.
  EXPECT_EQ(a.backup_duration_minutes(), 60);
}

TEST(AzureTraceTest, HeaderOptional) {
  auto servers = ImportAzureVmTrace(SampleTrace(/*with_header=*/false));
  ASSERT_TRUE(servers.ok());
  EXPECT_EQ(servers->size(), 2u);
}

TEST(AzureTraceTest, DropsOutOfRangeRows) {
  std::string trace = SampleTrace();
  trace += "86400,vm-a,0,0,250.0\n";  // absurd utilization
  auto servers = ImportAzureVmTrace(trace);
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

TEST(AzureTraceTest, ExportRoundTripsThroughSeriesBlock) {
  auto servers = ImportAzureVmTrace(SampleTrace());
  ASSERT_TRUE(servers.ok());
  auto decoded = DecodeTelemetryBlob(ExportToSeriesBlock(*servers));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), servers->size());
  for (size_t i = 0; i < servers->size(); ++i) {
    EXPECT_EQ((*decoded)[i].server_id, (*servers)[i].server_id);
    EXPECT_EQ((*decoded)[i].load.values(), (*servers)[i].load.values());
    EXPECT_EQ((*decoded)[i].default_backup_start,
              (*servers)[i].default_backup_start);
    EXPECT_EQ((*decoded)[i].default_backup_end,
              (*servers)[i].default_backup_end);
  }
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
  auto servers = ImportAzureVmTrace(text);
  ASSERT_TRUE(servers.ok());

  auto lake = LakeStore::OpenTemporary("azure-trace");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake->Put(LakeStore::TelemetryKey("trace", 3),
                        ExportToSeriesBlock(*servers))
                  .ok());
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
