/// \file obs_chaos_test.cc
/// \brief Concurrent monitoring under fault injection: a reader thread
/// polls the `seagull.fleet.*` counters, registry snapshots, and the
/// trace sink while an 8-way fleet run retries through injected store
/// faults. Under
/// tsan this is the proof that fleet-health counters routed through the
/// atomic registry fixed the old read-without-sync dashboard pattern —
/// the previous design summed per-run report fields that workers were
/// still writing.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "pipeline/fleet_runner.h"
#include "store/lake_store.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"

namespace seagull {
namespace {

constexpr int64_t kWeek = 3;

/// A fleet-health counter `FleetRunner` workers publish
/// (`seagull.fleet.<name>`), read off the atomic registry: safe while a
/// fleet run is still in flight.
int64_t FleetCounter(const std::string& name) {
  return MetricsRegistry::Global().GetCounter("seagull.fleet." + name)->Value();
}

TEST(ObsChaosTest, LiveCountersReadableWhileFleetRunsUnderFaults) {
  auto lake = LakeStore::OpenTemporary("obs_chaos");
  ASSERT_TRUE(lake.ok());
  const char* const regions[] = {"chaos-a", "chaos-b", "chaos-c", "chaos-d"};
  uint64_t seed = 9300;
  for (const char* region : regions) {
    RegionConfig config;
    config.name = region;
    config.num_servers = 25;
    config.weeks = 5;
    config.seed = seed++;
    Fleet fleet = Fleet::Generate(config);
    ASSERT_TRUE(lake->Put(LakeStore::TelemetryKey(region, kWeek),
                          ExtractWeekBlock(fleet, kWeek))
                    .ok());
  }

  MetricsRegistry::Global().Reset();
  ScopedTracing tracing;
  FaultConfig faults;
  faults.seed = 31;
  ScopedFaultInjection injection(faults);
  // Deterministic transient outages: the first two lake reads touching
  // these regions fail, forcing module retries the fleet must absorb
  // without quarantining (2 failures < 3 attempts).
  injection.registry().AddOutage("lake.get", "chaos-a", 2);
  injection.registry().AddOutage("lake.get", "chaos-c", 2);

  DocStore docs;
  FleetOptions options;
  options.jobs = 8;
  FleetRunner runner(&*lake, &docs, options);
  std::vector<FleetJob> jobs;
  for (const char* region : regions) jobs.push_back({region, kWeek});

  // The monitoring thread: hammers every concurrent read surface the
  // observability layer offers until the run completes.
  std::atomic<bool> done{false};
  std::atomic<int64_t> polls{0};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const int64_t regions_run = FleetCounter("regions_run");
      EXPECT_GE(regions_run, 0);
      EXPECT_LE(regions_run, 4);
      EXPECT_GE(FleetCounter("retries"), 0);
      EXPECT_GE(FleetCounter("quarantines"), 0);
      MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
      for (const auto& s : snapshot.samples) {
        EXPECT_GE(s.count, 0);
      }
      TraceSink::Global().TreeDigest();
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  PipelineContext config;
  FleetRunResult result = runner.Run(jobs, config);
  done.store(true, std::memory_order_release);
  monitor.join();

  ASSERT_EQ(result.SuccessCount(), 4)
      << (result.runs.empty() ? "" : result.runs[0].report.failure);
  EXPECT_GT(polls.load(), 0);

  // After the run, the counters agree with the run result exactly.
  EXPECT_EQ(FleetCounter("regions_run"), 4);
  EXPECT_EQ(FleetCounter("region_failures"), 0);
  EXPECT_EQ(FleetCounter("quarantines"),
            static_cast<int64_t>(result.quarantined.size()));
  EXPECT_EQ(FleetCounter("retries"), result.TotalRetries());
  EXPECT_GT(FleetCounter("retries"), 0)
      << "fault rate too low to exercise retries";
}

TEST(ObsChaosTest, QuarantineCountsSurfaceInLiveView) {
  auto lake = LakeStore::OpenTemporary("obs_chaos_q");
  ASSERT_TRUE(lake.ok());
  RegionConfig config;
  config.name = "chaos-q";
  config.num_servers = 20;
  config.weeks = 5;
  config.seed = 9400;
  Fleet fleet = Fleet::Generate(config);
  ASSERT_TRUE(lake->Put(LakeStore::TelemetryKey("chaos-q", kWeek),
                        ExtractWeekBlock(fleet, kWeek))
                  .ok());

  MetricsRegistry::Global().Reset();
  FaultConfig faults;
  faults.seed = 77;
  ScopedFaultInjection injection(faults);
  // A permanent outage on the region's telemetry reads: ingestion can
  // never succeed, retries exhaust, the fleet quarantines the region.
  injection.registry().AddOutage("lake.get", "chaos-q", /*count=*/-1);

  DocStore docs;
  FleetRunner runner(&*lake, &docs);
  PipelineContext ctx;
  FleetRunResult result = runner.Run({{"chaos-q", kWeek}}, ctx);
  ASSERT_EQ(result.FailureCount(), 1);
  ASSERT_EQ(result.quarantined.size(), 1u);

  EXPECT_EQ(FleetCounter("regions_run"), 1);
  EXPECT_EQ(FleetCounter("region_failures"), 1);
  EXPECT_EQ(FleetCounter("quarantines"), 1);
  EXPECT_GT(FleetCounter("retries"), 0);
}

}  // namespace
}  // namespace seagull
