/// \file obs_determinism_test.cc
/// \brief Observability must not observe differently under parallelism:
/// with the clock frozen (durations collapse to zero) and a fixed fault
/// seed, a jobs=1 and a jobs=8 fleet run produce byte-identical metrics
/// snapshots (modulo `seagull.pool.*`, which counts schedule-dependent
/// steals/queue depths by design, and `seagull.process.*`, which reads
/// kernel RSS accounting — physical-memory telemetry, like wall clock)
/// and identical span-tree digests.
///
/// This is the observability extension of the fleet determinism
/// contract: timing is observational-only, so freezing it cannot change
/// what the pipeline does — only what the histograms record.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/obs/clock.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "pipeline/fleet_runner.h"
#include "store/lake_store.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"

namespace seagull {
namespace {

constexpr int64_t kWeek = 3;
const char* const kRegions[] = {"obs-a", "obs-b", "obs-c"};

/// Shared fixed-seed lake, schema-pre-warmed like the fleet determinism
/// suite so every observed run sees identical lake state.
const LakeStore& SharedLake() {
  static const LakeStore lake = [] {
    auto opened = LakeStore::OpenTemporary("obs_det");
    opened.status().Abort();
    LakeStore owned = std::move(opened).ValueUnsafe();
    uint64_t seed = 7100;
    for (const char* region : kRegions) {
      RegionConfig config;
      config.name = region;
      config.num_servers = 30;
      config.weeks = 5;
      config.seed = seed++;
      Fleet fleet = Fleet::Generate(config);
      owned.Put(LakeStore::TelemetryKey(region, kWeek),
                ExtractWeekBlock(fleet, kWeek))
          .Abort();
    }
    DocStore scratch;
    FleetRunner warmup(&owned, &scratch);
    std::vector<FleetJob> jobs;
    for (const char* region : kRegions) jobs.push_back({region, kWeek});
    PipelineContext config;
    warmup.Run(jobs, config);
    return owned;
  }();
  return lake;
}

struct ObservedRun {
  std::string metrics_json;  ///< snapshot minus seagull.pool.*
  std::map<std::string, int64_t> counters;
  std::vector<std::string> span_digest;
  FleetRunResult result;
};

/// One fleet run observed under frozen clock + fresh registry/sink.
/// `fault_rate > 0` enables key-deterministic fault injection, which
/// must fire identically regardless of the schedule.
ObservedRun RunObserved(int jobs, double fault_rate) {
  // Materialize the lake (and its warm-up fleet run) before zeroing the
  // registry, or the first observed run counts the warm-up's ops too.
  const LakeStore& lake = SharedLake();
  ScopedFrozenClock frozen;
  MetricsRegistry::Global().Reset();
  ScopedTracing tracing;
  FaultConfig faults;
  faults.seed = 4242;
  faults.rate = fault_rate;
  ScopedFaultInjection injection(faults);

  DocStore docs;
  FleetOptions options;
  options.jobs = jobs;
  FleetRunner runner(&lake, &docs, options);
  std::vector<FleetJob> fleet_jobs;
  for (const char* region : kRegions) fleet_jobs.push_back({region, kWeek});
  PipelineContext config;

  ObservedRun out;
  out.result = runner.Run(fleet_jobs, config);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot().Without(
      {"seagull.pool.", "seagull.process."});
  out.metrics_json = snapshot.ToJson().Dump();
  out.counters = snapshot.CounterValues();
  out.span_digest = tracing.sink().TreeDigest();
  return out;
}

void ExpectIdenticalObservations(const ObservedRun& seq,
                                 const ObservedRun& par) {
  // Counter-by-counter first: a mismatch here names the exact metric.
  ASSERT_EQ(seq.counters.size(), par.counters.size());
  for (const auto& [key, value] : seq.counters) {
    auto it = par.counters.find(key);
    ASSERT_NE(it, par.counters.end()) << "missing counter: " << key;
    EXPECT_EQ(value, it->second) << "counter diverged: " << key;
  }
  // Then the whole snapshot byte-for-byte: gauges and histogram buckets
  // included (frozen clock -> all observations land in the first
  // bucket with sum 0, identically on every schedule).
  EXPECT_EQ(seq.metrics_json, par.metrics_json);
  EXPECT_EQ(seq.span_digest, par.span_digest);
}

TEST(ObsDeterminismTest, MetricsAndSpansMatchAcrossJobsCleanRun) {
  ObservedRun seq = RunObserved(1, /*fault_rate=*/0.0);
  ObservedRun par = RunObserved(8, /*fault_rate=*/0.0);
  ASSERT_EQ(seq.result.SuccessCount(), 3);
  ASSERT_EQ(par.result.SuccessCount(), 3);
  ExpectIdenticalObservations(seq, par);
  // Sanity: the snapshot actually covered the layers, it is not
  // vacuously equal.
  EXPECT_GT(seq.counters.at("seagull.fleet.regions_run"), 0);
  EXPECT_GT(seq.counters.at("seagull.lake.ops{op=get_blob}"), 0);
  EXPECT_GT(seq.counters.at("seagull.doc.ops{op=upsert}"), 0);
}

TEST(ObsDeterminismTest, MetricsAndSpansMatchAcrossJobsUnderFaults) {
  // Faults are a pure function of (seed, point, op key, attempt index),
  // so retry and fault counters must also agree between schedules.
  ObservedRun seq = RunObserved(1, /*fault_rate=*/0.02);
  ObservedRun par = RunObserved(8, /*fault_rate=*/0.02);
  ExpectIdenticalObservations(seq, par);
  // The fault rate is high enough to actually fire on this fleet.
  int64_t injected = 0, retries = 0;
  for (const auto& [key, value] : seq.counters) {
    if (key.rfind("seagull.fault.injected", 0) == 0) injected += value;
    if (key.rfind("seagull.pipeline.module_retries", 0) == 0) {
      retries += value;
    }
  }
  EXPECT_GT(injected, 0);
  EXPECT_GT(retries, 0);
}

TEST(ObsDeterminismTest, RepeatedParallelRunsObserveIdentically) {
  ObservedRun first = RunObserved(8, /*fault_rate=*/0.02);
  ObservedRun second = RunObserved(8, /*fault_rate=*/0.02);
  ExpectIdenticalObservations(first, second);
}

TEST(ObsDeterminismTest, FrozenClockZeroesEveryHistogram) {
  ObservedRun run = RunObserved(4, /*fault_rate=*/0.0);
  auto parsed = Json::Parse(run.metrics_json);
  ASSERT_TRUE(parsed.ok());
  const Json& histograms = (*parsed)["histograms"];
  ASSERT_TRUE(histograms.Contains(
      "seagull.pipeline.module_micros{module=ingestion}"));
  for (const auto& [key, h] : histograms.AsObject()) {
    EXPECT_DOUBLE_EQ(h.GetNumber("sum").ValueOr(-1), 0.0)
        << "non-zero duration under frozen clock: " << key;
    // Every observation is a zero-duration sample: all land in the
    // first bucket (quantiles interpolate inside it, below its edge).
    const auto& buckets = h["buckets"].AsArray();
    ASSERT_FALSE(buckets.empty());
    EXPECT_DOUBLE_EQ(buckets[0].GetNumber("count").ValueOr(-1),
                     h.GetNumber("count").ValueOr(-2))
        << key;
    EXPECT_LE(h.GetNumber("p99").ValueOr(1e18),
              buckets[0].GetNumber("le").ValueOr(0))
        << key;
  }
}

}  // namespace
}  // namespace seagull
