/// \file perf_budget_test.cc
/// \brief Perf-regression harness over op-count metrics: a fixed-seed,
/// jobs=1, frozen-clock fleet run is fully deterministic, so every op
/// counter (lake reads, doc upserts, module runs, forecasts) has an
/// exact expected value. `tests/budgets.json` checks in ceilings with
/// headroom; a change that, say, doubles doc-store queries per region
/// trips the budget here instead of surfacing as a production
/// regression three PRs later.
///
/// Runs under the `perf` ctest label (`tools/check.sh obs` slices
/// unit+perf). To re-baseline after an intentional op-count change, run
/// this binary with --gtest_also_run_disabled_tests and copy the
/// printed measured table into budgets.json (keep the ~1.5x headroom).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/obs/clock.h"
#include "common/obs/metrics.h"
#include "pipeline/fleet_runner.h"
#include "store/lake_store.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"

#ifndef SEAGULL_TEST_DATA_DIR
#define SEAGULL_TEST_DATA_DIR "tests"
#endif

namespace seagull {
namespace {

constexpr int64_t kWeek = 3;
const char* const kRegions[] = {"bud-a", "bud-b"};

/// The measured workload: 2 regions x 25 servers, schema-pre-warmed,
/// persistent_prev_day (no training fan-out noise), jobs=1. Everything
/// is fixed-seed so the counter values are exact, not statistical. Both
/// regions are staged as SGB1, so the data-plane counters (get_blob ops,
/// ingest bytes and rows) are part of the budgeted surface.
std::map<std::string, int64_t> MeasuredCounters() {
  static const std::map<std::string, int64_t>* counters = [] {
    auto opened = LakeStore::OpenTemporary("perf_budget");
    opened.status().Abort();
    const LakeStore lake = std::move(opened).ValueUnsafe();
    uint64_t seed = 8200;
    for (const char* region : kRegions) {
      RegionConfig config;
      config.name = region;
      config.num_servers = 25;
      config.weeks = 5;
      config.seed = seed++;
      Fleet fleet = Fleet::Generate(config);
      lake.Put(LakeStore::TelemetryKey(region, kWeek),
               ExtractWeekBlock(fleet, kWeek))
          .Abort();
    }
    {
      DocStore scratch;
      FleetRunner warmup(&lake, &scratch);
      std::vector<FleetJob> jobs;
      for (const char* region : kRegions) jobs.push_back({region, kWeek});
      PipelineContext config;
      warmup.Run(jobs, config);
    }

    ScopedFrozenClock frozen;
    MetricsRegistry::Global().Reset();
    DocStore docs;
    FleetRunner runner(&lake, &docs);
    std::vector<FleetJob> jobs;
    for (const char* region : kRegions) jobs.push_back({region, kWeek});
    PipelineContext config;
    FleetRunResult result = runner.Run(jobs, config);
    EXPECT_EQ(result.SuccessCount(), 2);
    return new std::map<std::string, int64_t>(
        MetricsRegistry::Global().Snapshot().CounterValues());
  }();
  return *counters;
}

Json LoadBudgets() {
  const std::string path =
      std::string(SEAGULL_TEST_DATA_DIR) + "/budgets.json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::Parse(buffer.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : Json::MakeObject();
}

TEST(PerfBudgetTest, OpCountsStayWithinCheckedInBudgets) {
  const auto counters = MeasuredCounters();
  Json budgets = LoadBudgets();
  ASSERT_TRUE(budgets.Contains("budgets"));
  const auto& entries = budgets["budgets"].AsObject();
  ASSERT_FALSE(entries.empty());
  for (const auto& [key, ceiling] : entries) {
    const int64_t max = ceiling.AsInt();
    auto it = counters.find(key);
    ASSERT_NE(it, counters.end())
        << "budgeted counter vanished (dead instrumentation?): " << key;
    EXPECT_GT(it->second, 0)
        << "budgeted counter is zero — the layer stopped reporting: "
        << key;
    EXPECT_LE(it->second, max)
        << "op-count budget exceeded for " << key << ": measured "
        << it->second << " > budget " << max
        << " (if intentional, re-baseline tests/budgets.json)";
  }
}

TEST(PerfBudgetTest, EveryHotLayerIsBudgeted) {
  // The budget file must keep covering each instrumented layer — a
  // budget that silently shrinks to one counter is no budget at all.
  Json budgets = LoadBudgets();
  const auto& entries = budgets["budgets"].AsObject();
  const char* const kRequiredPrefixes[] = {
      "seagull.lake.", "seagull.doc.", "seagull.pipeline.",
      "seagull.forecast.", "seagull.fleet."};
  for (const char* prefix : kRequiredPrefixes) {
    bool covered = false;
    for (const auto& [key, unused] : entries) {
      if (key.rfind(prefix, 0) == 0) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "no budget entry covers layer " << prefix;
  }
}

/// Re-baselining aid, excluded from normal runs: prints the measured
/// counters as a ready-to-paste budgets object with 1.5x headroom.
TEST(PerfBudgetTest, DISABLED_PrintMeasuredBudgets) {
  for (const auto& [key, value] : MeasuredCounters()) {
    if (value <= 0) continue;
    std::printf("    \"%s\": %lld,\n", key.c_str(),
                static_cast<long long>(value + (value + 1) / 2));
  }
}

}  // namespace
}  // namespace seagull
