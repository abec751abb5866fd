/// \file fault_injection_chaos_test.cc
/// \brief Chaos suite: the fleet under deterministic fault injection.
///
/// Three contracts from the fault model (DESIGN.md):
///  1. a fixed fault seed produces byte-identical document-store state
///     whether the fleet runs sequentially or eight-wide;
///  2. a region whose telemetry reads never recover is quarantined —
///     incident + alert recorded — while every healthy region completes
///     and can still schedule its backup windows;
///  3. retry counters in run reports match the injected fault schedule
///     exactly, down to per-module attempt counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "common/time.h"
#include "pipeline/dashboard.h"
#include "pipeline/fleet_runner.h"
#include "pipeline/incidents.h"
#include "pipeline/inference.h"
#include "scheduling/backup_scheduler.h"
#include "store/lake_store.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"
#include "telemetry/series_block.h"

namespace seagull {
namespace {

constexpr int64_t kWeek = 3;
const char* const kRegions[] = {"chaos-a", "chaos-b", "chaos-c"};

/// One lake shared by every test, built before any fault scope exists so
/// setup writes cannot be injected.
const LakeStore& SharedLake() {
  static const LakeStore lake = [] {
    auto opened = LakeStore::OpenTemporary("fault_chaos");
    opened.status().Abort();
    LakeStore owned = std::move(opened).ValueUnsafe();
    uint64_t seed = 1300;
    for (const char* region : kRegions) {
      RegionConfig config;
      config.name = region;
      config.num_servers = 40;
      config.weeks = 5;
      config.seed = seed++;
      Fleet fleet = Fleet::Generate(config);
      owned.Put(LakeStore::TelemetryKey(region, kWeek),
                ExtractWeekBlock(fleet, kWeek))
          .Abort();
    }
    // Pre-warm region schemas: the validation module writes a schema
    // blob on a region's first-ever run and reads it on every later
    // one. One throwaway fleet run (faults disabled — no scope exists
    // yet) makes every measured run below see identical lake bytes;
    // otherwise the first run's fault schedule would differ from every
    // subsequent one.
    DocStore scratch;
    FleetRunner warmup(&owned, &scratch);
    std::vector<FleetJob> jobs;
    for (const char* region : kRegions) jobs.push_back({region, kWeek});
    PipelineContext config;
    config.model_name = "persistent_prev_day";
    warmup.Run(jobs, config);
    return owned;
  }();
  return lake;
}

RetryPolicy ChaosRetry(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.base_backoff_millis = 0.0;  // retry immediately; tests need no pacing
  return policy;
}

struct ChaosOutcome {
  std::unique_ptr<DocStore> docs;
  FleetRunResult result;
  int64_t injected = 0;
};

ChaosOutcome RunFleet(int jobs, const FaultConfig& faults) {
  const LakeStore& lake = SharedLake();  // materialize outside the scope
  ScopedFaultInjection fault(faults);
  ChaosOutcome out;
  out.docs = std::make_unique<DocStore>();
  FleetOptions options;
  options.jobs = jobs;
  options.retry = ChaosRetry(4);
  FleetRunner runner(&lake, out.docs.get(), options);
  std::vector<FleetJob> fleet_jobs;
  for (const char* region : kRegions) fleet_jobs.push_back({region, kWeek});
  PipelineContext config;
  config.model_name = "persistent_prev_day";
  out.result = runner.Run(fleet_jobs, config);
  out.injected = fault.registry().TotalInjected();
  return out;
}

/// Snapshot text with wall-clock fields zeroed — the only part of the
/// store the determinism contract does not cover.
std::string CanonicalSnapshot(const DocStore& docs) {
  Json snapshot = docs.Snapshot();
  if (snapshot.Contains(kRunsContainer)) {
    for (Json& doc : snapshot[kRunsContainer].AsArray()) {
      Json& body = doc["body"];
      body["total_millis"] = 0.0;
      body["timings"] = Json::MakeObject();
    }
  }
  return snapshot.Dump();
}

TEST(FaultInjectionChaosTest, SameFaultSeedSameBytesAcrossJobCounts) {
  const FaultConfig faults{/*seed=*/7, /*rate=*/0.05};
  ChaosOutcome sequential = RunFleet(1, faults);
  ChaosOutcome parallel = RunFleet(8, faults);

  ASSERT_EQ(sequential.result.runs.size(), 3u);
  ASSERT_EQ(parallel.result.runs.size(), 3u);

  // The fault schedule is a function of (seed, point, op key), never of
  // thread interleaving: both executions inject the same faults, spend
  // the same retries, and land on identical store bytes.
  EXPECT_GT(sequential.injected, 0);
  EXPECT_EQ(sequential.injected, parallel.injected);
  EXPECT_GT(sequential.result.TotalRetries(), 0);
  EXPECT_EQ(sequential.result.TotalRetries(), parallel.result.TotalRetries());
  ASSERT_EQ(sequential.result.quarantined.size(),
            parallel.result.quarantined.size());
  for (size_t i = 0; i < sequential.result.quarantined.size(); ++i) {
    EXPECT_EQ(sequential.result.quarantined[i].region,
              parallel.result.quarantined[i].region);
    EXPECT_EQ(sequential.result.quarantined[i].reason,
              parallel.result.quarantined[i].reason);
  }
  EXPECT_EQ(CanonicalSnapshot(*sequential.docs),
            CanonicalSnapshot(*parallel.docs));
}

TEST(FaultInjectionChaosTest, RepeatedChaosRunsAreStable) {
  const FaultConfig faults{/*seed=*/7, /*rate=*/0.05};
  ChaosOutcome first = RunFleet(8, faults);
  ChaosOutcome second = RunFleet(8, faults);
  EXPECT_EQ(first.injected, second.injected);
  EXPECT_EQ(CanonicalSnapshot(*first.docs), CanonicalSnapshot(*second.docs));
}

TEST(FaultInjectionChaosTest, QuarantinedRegionDoesNotSinkTheFleet) {
  const LakeStore& lake = SharedLake();
  auto docs = std::make_unique<DocStore>();
  FleetRunResult result;
  {
    ScopedFaultInjection fault({/*seed=*/1, /*rate=*/0.0});
    // chaos-b's telemetry blob is down for good; retries must exhaust.
    fault.registry().AddOutage("lake.get", "telemetry/chaos-b", -1);
    FleetOptions options;
    options.jobs = 4;
    options.retry = ChaosRetry(3);
    FleetRunner runner(&lake, docs.get(), options);
    std::vector<FleetJob> jobs;
    for (const char* region : kRegions) jobs.push_back({region, kWeek});
    PipelineContext config;
    config.model_name = "persistent_prev_day";
    result = runner.Run(jobs, config);
  }

  // Healthy regions completed; the fleet did not fail wholesale.
  ASSERT_EQ(result.runs.size(), 3u);
  EXPECT_TRUE(result.runs[0].report.success)
      << result.runs[0].report.failure;
  EXPECT_FALSE(result.runs[1].report.success);
  EXPECT_TRUE(result.runs[2].report.success)
      << result.runs[2].report.failure;

  // The outage region is quarantined with an incident and an alert.
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].region, "chaos-b");
  EXPECT_EQ(result.quarantined[0].week, kWeek);
  EXPECT_NE(result.quarantined[0].reason.find("injected"), std::string::npos);
  auto incident = docs->GetContainer(kIncidentContainer)
                      ->Get("chaos-b", "w0003:quarantine");
  ASSERT_TRUE(incident.ok()) << incident.status().ToString();
  EXPECT_EQ(incident->body.GetString("module").ValueOr(""), "fleet");
  bool saw_quarantine_alert = false;
  for (const auto& alert : result.AllAlerts()) {
    if (alert.rule == "region_quarantined" && alert.region == "chaos-b") {
      saw_quarantine_alert = true;
    }
  }
  EXPECT_TRUE(saw_quarantine_alert);

  // Healthy regions produced predictions; the quarantined one did not.
  Container* predictions = docs->GetContainer(kPredictionsContainer);
  auto by_region = [&](const char* region) {
    return predictions
        ->Query([&](const Document& d) { return d.partition_key == region; })
        .size();
  };
  EXPECT_GT(by_region("chaos-a"), 0u);
  EXPECT_EQ(by_region("chaos-b"), 0u);
  EXPECT_GT(by_region("chaos-c"), 0u);

  // And their pipeline outputs still drive backup scheduling: every due
  // server of a healthy region gets a window for the first day of the
  // week the run just produced verdicts for (accuracy docs cover
  // `week + 1`).
  const int64_t day = (kWeek + 1) * 7;
  auto blob = lake.GetBlob(LakeStore::TelemetryKey("chaos-a", kWeek));
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto telemetry = DecodeTelemetryBlob(blob->view());
  ASSERT_TRUE(telemetry.ok()) << telemetry.status().ToString();
  std::vector<DueServer> due;
  for (const auto& st : *telemetry) {
    DueServer d;
    d.server_id = st.server_id;
    d.recent_load = st.load.Slice(st.load.start(), day * kMinutesPerDay);
    d.default_start =
        day * kMinutesPerDay + MinuteOfDay(st.default_backup_start);
    d.default_end = d.default_start + st.backup_duration_minutes();
    d.backup_duration_minutes = st.backup_duration_minutes();
    due.push_back(std::move(d));
  }
  ASSERT_FALSE(due.empty());
  ServiceFabricProperties properties;
  BackupScheduler backup_scheduler(docs.get(), &properties);
  auto schedules = backup_scheduler.ScheduleDay("chaos-a", day, due);
  ASSERT_EQ(schedules.size(), due.size());
  int64_t low_load = 0;
  for (const auto& s : schedules) {
    EXPECT_GT(s.window_end, s.window_start);
    if (s.decision == ScheduleDecision::kScheduledLowLoad) ++low_load;
  }
  EXPECT_GT(low_load, 0);
}

TEST(FaultInjectionChaosTest, RetryCountersMatchInjectedSchedule) {
  const LakeStore& lake = SharedLake();
  auto docs = std::make_unique<DocStore>();
  FleetRunResult result;
  int64_t injected = 0;
  int64_t injected_calls = 0;
  {
    ScopedFaultInjection fault({/*seed=*/1, /*rate=*/0.0});
    // Exactly two transient failures on chaos-a's telemetry blob: the
    // ingestion module must fail twice and succeed on its third attempt.
    fault.registry().AddOutage("lake.get", "telemetry/chaos-a", 2);
    FleetOptions options;
    options.jobs = 1;
    options.retry = ChaosRetry(4);
    FleetRunner runner(&lake, docs.get(), options);
    PipelineContext config;
    config.model_name = "persistent_prev_day";
    result = runner.Run({{"chaos-a", kWeek}}, config);
    injected = fault.registry().InjectedCount("lake.get");
    injected_calls = fault.registry().TotalInjected();
  }

  ASSERT_EQ(result.runs.size(), 1u);
  const PipelineRunReport& report = result.runs[0].report;
  ASSERT_TRUE(report.success) << report.failure;
  EXPECT_EQ(injected, 2);
  EXPECT_EQ(injected_calls, 2);

  // Report-level counters mirror the schedule: two retries, no quarantine.
  EXPECT_EQ(report.retries, 2);
  EXPECT_FALSE(report.retries_exhausted);
  EXPECT_EQ(result.TotalRetries(), 2);
  EXPECT_TRUE(result.quarantined.empty());

  // Per-module attempt counts: ingestion ran three times, the rest once.
  bool saw_ingestion = false;
  for (const auto& timing : report.timings) {
    if (timing.module == "ingestion") {
      saw_ingestion = true;
      EXPECT_EQ(timing.attempts, 3);
    } else {
      EXPECT_EQ(timing.attempts, 1) << timing.module;
    }
  }
  EXPECT_TRUE(saw_ingestion);

  // The persisted run document and incident trail agree with the report.
  auto run_doc = docs->GetContainer(kRunsContainer)->Get("chaos-a", "w0003");
  ASSERT_TRUE(run_doc.ok()) << run_doc.status().ToString();
  EXPECT_EQ(run_doc->body.GetNumber("retries").ValueOr(-1.0), 2.0);
  EXPECT_FALSE(run_doc->body.GetBool("quarantined").ValueOr(true));
  auto retry_incidents = docs->GetContainer(kIncidentContainer)
                             ->Query([](const Document& d) {
                               return d.body.GetString("message")
                                          .ValueOr("")
                                          .find("transient failure") !=
                                      std::string::npos;
                             });
  EXPECT_EQ(retry_incidents.size(), 2u);
}

}  // namespace
}  // namespace seagull
