#include <gtest/gtest.h>

#include "pipeline/dashboard.h"
#include "pipeline/deployment.h"
#include "pipeline/incidents.h"
#include "pipeline/scheduler.h"
#include "pipeline/tracking.h"
#include "telemetry/emitter.h"

namespace seagull {
namespace {

/// A module that succeeds and counts invocations.
class CountingModule final : public PipelineModule {
 public:
  explicit CountingModule(int* counter) : counter_(counter) {}
  std::string name() const override { return "counting"; }
  Status Run(PipelineContext*) override {
    ++*counter_;
    return Status::OK();
  }

 private:
  int* counter_;
};

/// A module that always fails.
class FailingModule final : public PipelineModule {
 public:
  std::string name() const override { return "failing"; }
  Status Run(PipelineContext*) override {
    return Status::Internal("boom");
  }
};

TEST(PipelineRunnerTest, RunsModulesInOrderWithTimings) {
  int calls = 0;
  Pipeline p;
  p.Add(std::make_unique<CountingModule>(&calls))
      .Add(std::make_unique<CountingModule>(&calls));
  PipelineContext ctx;
  ctx.region = "r";
  ctx.week = 1;
  PipelineRunReport report = p.Run(&ctx);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(report.timings.size(), 2u);
  EXPECT_TRUE(report.timings[0].ok);
  EXPECT_GE(report.TotalMillis(), 0.0);
  EXPECT_GE(report.MillisOf("counting"), 0.0);
  EXPECT_DOUBLE_EQ(report.MillisOf("never-ran"), 0.0);
}

TEST(PipelineRunnerTest, StopsAtFirstFailure) {
  int calls = 0;
  Pipeline p;
  p.Add(std::make_unique<CountingModule>(&calls))
      .Add(std::make_unique<FailingModule>())
      .Add(std::make_unique<CountingModule>(&calls));
  PipelineContext ctx;
  PipelineRunReport report = p.Run(&ctx);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(calls, 1);  // third module never ran
  EXPECT_NE(report.failure.find("failing"), std::string::npos);
  // The failure was recorded as an error incident.
  ASSERT_EQ(ctx.incidents.size(), 1u);
  EXPECT_EQ(ctx.incidents[0].severity, IncidentSeverity::kError);
}

/// A module that fails with a retryable status a fixed number of times.
class FlakyModule final : public PipelineModule {
 public:
  explicit FlakyModule(int failures) : failures_(failures) {}
  std::string name() const override { return "flaky"; }
  Status Run(PipelineContext*) override {
    if (failures_-- > 0) return Status::IOError("transient outage");
    return Status::OK();
  }

 private:
  int failures_;
};

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.base_backoff_millis = 0.0;
  return policy;
}

TEST(PipelineRunnerTest, RetriesTransientModuleFailures) {
  int calls = 0;
  Pipeline p;
  p.Add(std::make_unique<FlakyModule>(2))
      .Add(std::make_unique<CountingModule>(&calls));
  PipelineContext ctx;
  ctx.region = "r";
  PipelineRunReport report = p.Run(&ctx, FastRetry(4));
  EXPECT_TRUE(report.success) << report.failure;
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(report.retries, 2);
  EXPECT_FALSE(report.retries_exhausted);
  ASSERT_EQ(report.timings.size(), 2u);
  EXPECT_EQ(report.timings[0].attempts, 3);
  EXPECT_EQ(report.timings[1].attempts, 1);
  // Each retry left a warning incident for the run's audit trail.
  int warnings = 0;
  for (const auto& incident : ctx.incidents) {
    if (incident.severity == IncidentSeverity::kWarning) ++warnings;
  }
  EXPECT_EQ(warnings, 2);
}

TEST(PipelineRunnerTest, NonRetryableModuleFailureFailsFast) {
  Pipeline p;
  p.Add(std::make_unique<FailingModule>());  // Internal: not retryable
  PipelineContext ctx;
  PipelineRunReport report = p.Run(&ctx, FastRetry(5));
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.retries, 0);
  EXPECT_FALSE(report.retries_exhausted);
  ASSERT_EQ(report.timings.size(), 1u);
  EXPECT_EQ(report.timings[0].attempts, 1);
}

TEST(PipelineRunnerTest, ExhaustedRetriesAreFlaggedForQuarantine) {
  Pipeline p;
  p.Add(std::make_unique<FlakyModule>(100));
  PipelineContext ctx;
  PipelineRunReport report = p.Run(&ctx, FastRetry(3));
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.retries, 2);
  EXPECT_TRUE(report.retries_exhausted);
}

TEST(IncidentManagerTest, PersistsAndAlerts) {
  DocStore docs;
  IncidentManager manager(&docs);
  PipelineContext ctx;
  ctx.region = "r1";
  ctx.week = 3;
  ctx.AddIncident(IncidentSeverity::kInfo, "m", "fyi");
  ctx.AddIncident(IncidentSeverity::kError, "deploy", "failed deployment");
  PipelineRunReport report;
  report.success = true;
  auto alerts = manager.Process(ctx, report);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "error_incident");
  EXPECT_EQ(manager.History("r1").size(), 2u);
}

TEST(IncidentManagerTest, WarningFloodAlerts) {
  DocStore docs;
  IncidentManager manager(&docs);
  PipelineContext ctx;
  ctx.region = "r";
  // At the threshold: no alert yet.
  for (int64_t i = 0; i < kWarningFloodThreshold; ++i) {
    ctx.AddIncident(IncidentSeverity::kWarning, "m", "w");
  }
  PipelineRunReport report;
  report.success = true;
  EXPECT_TRUE(manager.Process(ctx, report).empty());
  // One past it: 11 warnings in one run flood.
  ctx.AddIncident(IncidentSeverity::kWarning, "m", "w");
  auto alerts = manager.Process(ctx, report);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "warning_flood");
}

TEST(IncidentManagerTest, RunFailureAlerts) {
  DocStore docs;
  IncidentManager manager(&docs);
  PipelineContext ctx;
  ctx.region = "r";
  PipelineRunReport report;
  report.success = false;
  report.failure = "ingestion: NotFound: blob";
  auto alerts = manager.Process(ctx, report);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "run_failed");
}

TEST(DashboardTest, RecordsAndSummarizes) {
  DocStore docs;
  Dashboard dashboard(&docs);
  for (int week = 0; week < 3; ++week) {
    PipelineContext ctx;
    ctx.region = "west";
    ctx.week = week;
    ctx.stats["accuracy.predictable_fraction"] = 0.5 + 0.1 * week;
    PipelineRunReport report;
    report.region = "west";
    report.week = week;
    report.success = week != 1;
    report.timings.push_back({"ingestion", 10.0, true});
    report.incident_count = week;
    ASSERT_TRUE(dashboard.Record(ctx, report).ok());
  }
  auto summaries = dashboard.Summarize();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].runs, 3);
  EXPECT_EQ(summaries[0].failures, 1);
  EXPECT_EQ(summaries[0].incidents, 3);
  EXPECT_NEAR(summaries[0].last_predictable_fraction, 0.7, 1e-9);
  std::string text = dashboard.Render();
  EXPECT_NE(text.find("west"), std::string::npos);
}

TEST(DashboardTest, CountsRetriesAndQuarantinedRuns) {
  DocStore docs;
  Dashboard dashboard(&docs);
  for (int week = 0; week < 3; ++week) {
    PipelineContext ctx;
    ctx.region = "east";
    ctx.week = week;
    PipelineRunReport report;
    report.region = "east";
    report.week = week;
    report.retries = week;        // 0 + 1 + 2 = 3 total
    if (week == 2) {              // one run exhausted its budget
      report.success = false;
      report.retries_exhausted = true;
    } else {
      report.success = true;
    }
    ASSERT_TRUE(dashboard.Record(ctx, report).ok());
  }
  auto summaries = dashboard.Summarize();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].retries, 3);
  EXPECT_EQ(summaries[0].quarantines, 1);
  std::string text = dashboard.Render();
  EXPECT_NE(text.find("retries"), std::string::npos);
  EXPECT_NE(text.find("quar"), std::string::npos);
}

TEST(TrackingTest, RecordsStatsAndFallsBackOnRegression) {
  DocStore docs;
  PipelineContext ctx;
  ctx.region = "r";
  ctx.week = 5;
  ctx.docs = &docs;
  ctx.model_name = "persistent_prev_day";
  ctx.deployed_version = 1;
  // Version 1: 90% predictable.
  for (int i = 0; i < 10; ++i) {
    ServerAccuracy acc;
    acc.server_id = "s" + std::to_string(i);
    acc.long_lived = true;
    acc.predictable = i != 0;
    ctx.accuracy_records.push_back(acc);
  }
  ASSERT_TRUE(SetActiveVersion(&docs, "r", 1, "test").ok());
  ModelTrackingModule tracking;
  ASSERT_TRUE(tracking.Run(&ctx).ok());
  EXPECT_DOUBLE_EQ(ctx.stats["tracking.fallback"], 0.0);

  // Version 2: only 20% predictable -> regression, fallback to v1.
  PipelineContext ctx2;
  ctx2.region = "r";
  ctx2.week = 6;
  ctx2.docs = &docs;
  ctx2.model_name = "persistent_prev_day";
  ctx2.deployed_version = 2;
  for (int i = 0; i < 10; ++i) {
    ServerAccuracy acc;
    acc.server_id = "s" + std::to_string(i);
    acc.long_lived = true;
    acc.predictable = i < 2;
    ctx2.accuracy_records.push_back(acc);
  }
  ASSERT_TRUE(SetActiveVersion(&docs, "r", 2, "test").ok());
  ASSERT_TRUE(tracking.Run(&ctx2).ok());
  EXPECT_DOUBLE_EQ(ctx2.stats["tracking.fallback"], 1.0);
  EXPECT_EQ(*ActiveVersion(&docs, "r"), 1);
  // An error incident announced the fallback.
  bool announced = false;
  for (const auto& incident : ctx2.incidents) {
    if (incident.module == "tracking" &&
        incident.severity == IncidentSeverity::kError) {
      announced = true;
    }
  }
  EXPECT_TRUE(announced);
}

TEST(TrackingTest, RequiresDeploymentAndAccuracy) {
  DocStore docs;
  ModelTrackingModule tracking;
  PipelineContext ctx;
  ctx.docs = &docs;
  EXPECT_TRUE(tracking.Run(&ctx).IsFailedPrecondition());
}

class SchedulerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto lake = LakeStore::OpenTemporary("sched");
    ASSERT_TRUE(lake.ok());
    lake_ = std::make_unique<LakeStore>(std::move(lake).ValueUnsafe());
    RegionConfig config;
    config.name = "sched";
    config.num_servers = 25;
    config.weeks = 5;
    config.seed = 11;
    fleet_ = std::make_unique<Fleet>(Fleet::Generate(config));
    for (int64_t w = 2; w <= 3; ++w) {
      ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("sched", w),
                             ExtractWeekBlock(*fleet_, w))
                      .ok());
    }
    pipeline_ = Pipeline::Standard();
  }

  std::unique_ptr<LakeStore> lake_;
  std::unique_ptr<Fleet> fleet_;
  DocStore docs_;
  Pipeline pipeline_;
};

TEST_F(SchedulerFixture, RunsWhenDueAndRecords) {
  PipelineScheduler scheduler(&pipeline_, lake_.get(), &docs_);
  EXPECT_TRUE(scheduler.IsDue("sched", 2));
  EXPECT_EQ(scheduler.LastSuccessfulWeek("sched"), -1);
  PipelineContext config;
  auto run = scheduler.RunIfDue("sched", 2, config);
  EXPECT_TRUE(run.report.success);
  EXPECT_FALSE(run.report.timings.empty());
  EXPECT_EQ(scheduler.LastSuccessfulWeek("sched"), 2);
}

TEST_F(SchedulerFixture, SkipsWhenNotDue) {
  PipelineScheduler scheduler(&pipeline_, lake_.get(), &docs_);
  PipelineContext config;
  auto first = scheduler.RunIfDue("sched", 2, config);
  EXPECT_TRUE(first.report.success);
  // Weekly cadence: week 2 (and anything earlier) already ran.
  EXPECT_FALSE(scheduler.IsDue("sched", 2));
  EXPECT_FALSE(scheduler.IsDue("sched", 1));
  auto skipped = scheduler.RunIfDue("sched", 2, config);
  EXPECT_TRUE(skipped.report.success);
  EXPECT_TRUE(skipped.report.timings.empty());  // no-op
  EXPECT_TRUE(scheduler.IsDue("sched", 3));
}

TEST_F(SchedulerFixture, FailedRunLeavesRegionDue) {
  PipelineScheduler scheduler(&pipeline_, lake_.get(), &docs_);
  PipelineContext config;
  // Week 4 was never extracted: ingestion fails.
  auto run = scheduler.RunIfDue("sched", 4, config);
  EXPECT_FALSE(run.report.success);
  EXPECT_FALSE(run.alerts.empty());
  EXPECT_TRUE(scheduler.IsDue("sched", 4));  // still due (catch-up)
}

}  // namespace
}  // namespace seagull
