/// \file serving_determinism_test.cc
/// \brief The serving engine's determinism contract, with and without
/// fault injection.
///
/// With a frozen clock and a fixed request schedule, the response set
/// (FNV digest over (seq, response) pairs in schedule order) and the
/// final fleet snapshot must be byte-identical at jobs=1 and jobs=8:
/// responses depend only on (request, tick epoch), pending increments
/// merge in explicit seq order, and refits write only their own
/// server's state. The chaos variant layers the `serving.refit` fault
/// point on top — fault decisions key on the server id, so the injected
/// failure set is equally schedule-independent.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/fault.h"
#include "common/hash.h"
#include "common/obs/clock.h"
#include "common/strings.h"
#include "serving/loadgen.h"
#include "serving_test_util.h"
#include "telemetry/fleet.h"

namespace seagull {
namespace {

std::vector<ServerTelemetry> GeneratedTails(int servers, uint64_t seed) {
  RegionConfig config;
  config.name = "det";
  config.num_servers = servers;
  config.weeks = 1;
  config.seed = seed;
  Fleet fleet = Fleet::Generate(config);
  std::vector<ServerTelemetry> tails;
  for (const auto& profile : fleet.servers()) {
    tails.push_back(MakeTail(profile.server_id,
                             fleet.ObservedLoad(profile, 0,
                                                kMinutesPerWeek)));
  }
  return tails;
}

struct RunOutcome {
  LoadgenReport report;
  std::string snapshot;
};

/// One full load-test run at the given concurrency. `fault_rate > 0`
/// enables the serving.refit fault point for the run's duration;
/// `mixed_verbs` turns on the PR 8 verbs (batch predict + subscription
/// churn) so the digest also covers snapshot reads and notifications;
/// a non-empty `refit_model` re-fits that family on every dirty tail
/// instead of predicting through the endpoint.
RunOutcome RunOnce(DriverMode mode, int jobs, double fault_rate,
                   bool mixed_verbs = false,
                   const std::string& refit_model = "") {
  ScopedFrozenClock frozen;
  std::unique_ptr<ScopedFaultInjection> faults;
  if (fault_rate > 0.0) {
    FaultConfig config;
    config.seed = 5;
    config.rate = 0.0;  // only the serving.refit point faults
    faults = std::make_unique<ScopedFaultInjection>(config);
    faults->registry().SetPointRate("serving.refit", fault_rate);
  }

  const std::vector<ServerTelemetry> tails = GeneratedTails(60, 11);
  std::vector<std::string> ids;
  for (const auto& st : tails) ids.push_back(st.server_id);

  std::unique_ptr<ThreadPool> pool;
  ServingOptions serving;
  serving.refit_model = refit_model;
  if (jobs > 1) {
    pool = std::make_unique<ThreadPool>(jobs);
    serving.pool = pool.get();
  }
  ServingEngine engine(MakePrevDayEndpoint(), serving);
  engine.Bootstrap(tails).Abort();
  engine.Tick();

  LoadgenOptions options;
  options.profile = LoadProfile::kSoak;
  options.mode = mode;
  options.seed = 9;
  options.ticks = 6;
  options.base_requests_per_tick =
      mode == DriverMode::kOpenLoop ? 120 : 30;
  options.closed_loop_clients = 4;
  options.epoch_start = kMinutesPerWeek;
  options.jobs = jobs;
  if (mixed_verbs) {
    options.predict_fraction = 0.45;
    options.ll_window_fraction = 0.15;
    options.batch_fraction = 0.10;
    options.batch_size = 6;
    options.subscribe_fraction = 0.10;
  }

  RunOutcome outcome;
  outcome.report =
      RunLoadTest(&engine, options, BuildSchedule(options, ids));
  outcome.snapshot = engine.SnapshotText();
  return outcome;
}

TEST(ServingDeterminismTest, OpenLoopIdenticalAcrossJobs) {
  RunOutcome sequential = RunOnce(DriverMode::kOpenLoop, 1, 0.0);
  RunOutcome parallel = RunOnce(DriverMode::kOpenLoop, 8, 0.0);
  EXPECT_EQ(sequential.report.response_digest,
            parallel.report.response_digest);
  EXPECT_EQ(sequential.snapshot, parallel.snapshot);
  EXPECT_EQ(sequential.report.errors, parallel.report.errors);
  EXPECT_GT(sequential.report.requests, 0);
}

TEST(ServingDeterminismTest, ClosedLoopIdenticalAcrossJobs) {
  RunOutcome sequential = RunOnce(DriverMode::kClosedLoop, 1, 0.0);
  RunOutcome parallel = RunOnce(DriverMode::kClosedLoop, 8, 0.0);
  EXPECT_EQ(sequential.report.response_digest,
            parallel.report.response_digest);
  EXPECT_EQ(sequential.snapshot, parallel.snapshot);
}

TEST(ServingDeterminismTest, IdenticalUnderFaultInjection) {
  RunOutcome sequential = RunOnce(DriverMode::kOpenLoop, 1, 0.10);
  RunOutcome parallel = RunOnce(DriverMode::kOpenLoop, 8, 0.10);
  // The faults actually fired, and fired identically: failed refits
  // keep the stale forecast, so divergent fault sets would diverge the
  // snapshots (and any response served off a wrongly-stale forecast).
  EXPECT_GT(sequential.report.refit_failures, 0);
  EXPECT_EQ(sequential.report.refit_failures,
            parallel.report.refit_failures);
  EXPECT_EQ(sequential.report.response_digest,
            parallel.report.response_digest);
  EXPECT_EQ(sequential.snapshot, parallel.snapshot);
}

TEST(ServingDeterminismTest, MixedVerbsIdenticalAcrossJobs) {
  // The PR 8 verbs ride the same contract: batch predicts answer from
  // one published snapshot and subscription records fire on the tick
  // thread, so the folded notification digest must also match.
  RunOutcome sequential =
      RunOnce(DriverMode::kOpenLoop, 1, 0.0, /*mixed_verbs=*/true);
  RunOutcome parallel =
      RunOnce(DriverMode::kOpenLoop, 8, 0.0, /*mixed_verbs=*/true);
  EXPECT_EQ(sequential.report.response_digest,
            parallel.report.response_digest);
  EXPECT_EQ(sequential.snapshot, parallel.snapshot);
  EXPECT_EQ(sequential.report.predictions, parallel.report.predictions);
  EXPECT_EQ(sequential.report.notifications,
            parallel.report.notifications);
  // The mixed schedule actually exercised the new verbs.
  EXPECT_GT(sequential.report.latency.count("batch_predict"), 0u);
  EXPECT_GT(sequential.report.latency.count("subscribe_ll"), 0u);
  EXPECT_GT(sequential.report.predictions, sequential.report.requests);
}

TEST(ServingDeterminismTest, MixedVerbsIdenticalUnderFaultInjection) {
  RunOutcome sequential =
      RunOnce(DriverMode::kOpenLoop, 1, 0.10, /*mixed_verbs=*/true);
  RunOutcome parallel =
      RunOnce(DriverMode::kOpenLoop, 8, 0.10, /*mixed_verbs=*/true);
  EXPECT_GT(sequential.report.refit_failures, 0);
  EXPECT_EQ(sequential.report.refit_failures,
            parallel.report.refit_failures);
  EXPECT_EQ(sequential.report.response_digest,
            parallel.report.response_digest);
  EXPECT_EQ(sequential.snapshot, parallel.snapshot);
  EXPECT_EQ(sequential.report.notifications,
            parallel.report.notifications);
}

/// The additive-refit run's digests, frozen in
/// tests/golden/additive_draws_v1.json by the implementation that drew
/// every Monte-Carlo normal afresh.
const Json& RefitGolden() {
  static const Json doc = [] {
    const std::string path =
        std::string(SEAGULL_TEST_DATA_DIR) + "/golden/additive_draws_v1.json";
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = Json::Parse(buffer.str());
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    return parsed.ok() ? (*parsed)["serving_additive_refit"]
                       : Json::MakeObject();
  }();
  return doc;
}

std::string Hex64(uint64_t h) {
  return StringPrintf("%016llx", static_cast<unsigned long long>(h));
}

TEST(ServingDeterminismTest, AdditiveRefitIdenticalAcrossJobs) {
  // Every tick re-fits the dirty tails and forecasts each from the
  // shared tail end, so pool workers reuse their thread's design and
  // Monte-Carlo draws while the jobs=1 run reuses the tick thread's.
  RunOutcome sequential = RunOnce(DriverMode::kOpenLoop, 1, 0.0,
                                  /*mixed_verbs=*/true, "additive");
  RunOutcome parallel = RunOnce(DriverMode::kOpenLoop, 8, 0.0,
                                /*mixed_verbs=*/true, "additive");
  EXPECT_GT(sequential.report.refits, 0);
  EXPECT_EQ(sequential.report.refit_failures, 0);
  EXPECT_EQ(sequential.report.response_digest,
            parallel.report.response_digest);
  EXPECT_EQ(sequential.snapshot, parallel.snapshot);
  EXPECT_EQ(sequential.report.notifications,
            parallel.report.notifications);
  EXPECT_EQ(Hex64(sequential.report.response_digest),
            RefitGolden()["response_digest"].AsString());
  EXPECT_EQ(Hex64(Fnv1aFold(kFnv1aBasis, sequential.snapshot)),
            RefitGolden()["snapshot_fnv1a64"].AsString());
}

TEST(ServingDeterminismTest, FaultFreeAndFaultedRunsDiverge) {
  // Sanity check that the digest is sensitive at all: the chaos run
  // must not accidentally equal the clean run.
  RunOutcome clean = RunOnce(DriverMode::kOpenLoop, 1, 0.0);
  RunOutcome faulted = RunOnce(DriverMode::kOpenLoop, 1, 0.10);
  EXPECT_NE(clean.snapshot, faulted.snapshot);
}

}  // namespace
}  // namespace seagull
