/// \file failure_injection_test.cc
/// \brief Failure-path coverage: corrupted inputs, broken registry state,
/// and degraded telemetry must degrade gracefully — errors surface as
/// statuses and incidents, the scheduler falls back to default windows,
/// and nothing crashes. Infrastructure failures (store outages, transient
/// I/O errors) are driven through `FaultRegistry`; corrupted-input cases
/// stay hand-crafted because they model bad *data*, not bad I/O.

#include <gtest/gtest.h>

#include <fstream>

#include "common/fault.h"
#include "common/retry.h"
#include "pipeline/scheduler.h"
#include "scheduling/backup_scheduler.h"
#include "scheduling/simulation.h"
#include "telemetry/emitter.h"

namespace seagull {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto lake = LakeStore::OpenTemporary("failure");
    ASSERT_TRUE(lake.ok());
    lake_ = std::make_unique<LakeStore>(std::move(lake).ValueUnsafe());
    RegionConfig config;
    config.name = "fail";
    config.num_servers = 20;
    config.weeks = 4;
    config.seed = 3;
    fleet_ = std::make_unique<Fleet>(Fleet::Generate(config));
  }

  PipelineContext MakeContext(int64_t week) {
    PipelineContext ctx;
    ctx.region = "fail";
    ctx.week = week;
    ctx.lake = lake_.get();
    ctx.docs = &docs_;
    return ctx;
  }

  std::unique_ptr<LakeStore> lake_;
  std::unique_ptr<Fleet> fleet_;
  DocStore docs_;
};

TEST_F(FailureTest, GarbageBlobFailsIngestionWithIncident) {
  ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("fail", 2),
                         "\x01\x02garbage\xff,,,\nnot,a,csv")
                  .ok());
  Pipeline pipeline = Pipeline::Standard();
  PipelineContext ctx = MakeContext(2);
  PipelineRunReport report = pipeline.Run(&ctx);
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(ctx.incidents.empty());
}

TEST_F(FailureTest, WrongHeaderFailsIngestion) {
  ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("fail", 2),
                         "a,b,c,d,e\nx,1,2,3,4\n")
                  .ok());
  Pipeline pipeline = Pipeline::Standard();
  PipelineContext ctx = MakeContext(2);
  PipelineRunReport report = pipeline.Run(&ctx);
  EXPECT_FALSE(report.success);
}

TEST_F(FailureTest, TruncatedBlockFailsCleanly) {
  // A half-written SGB1 extraction: the cursor must reject it before
  // any server is decoded.
  std::string good = ExtractWeekBlock(*fleet_, 2);
  std::string truncated = good.substr(0, good.size() / 2);
  ASSERT_TRUE(
      lake_->Put(LakeStore::TelemetryKey("fail", 2), truncated).ok());
  Pipeline pipeline = Pipeline::Standard();
  PipelineContext ctx = MakeContext(2);
  PipelineRunReport report = pipeline.Run(&ctx);
  EXPECT_FALSE(report.success);
  EXPECT_TRUE(ctx.servers.empty());
  ASSERT_FALSE(ctx.incidents.empty());
  EXPECT_EQ(ctx.incidents[0].severity, IncidentSeverity::kError);
}

TEST_F(FailureTest, CsvExtractionFailsIngestionNamingTheFormat) {
  // SGB1 is the only telemetry format the pipeline reads: a well-formed
  // CSV extraction (what `transcode --to csv` prints) under a telemetry
  // key fails ingestion like any other foreign blob, and says why.
  auto rows = DecodeSeriesBlock(ExtractWeekBlock(*fleet_, 2));
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(
      lake_->Put(LakeStore::TelemetryKey("fail", 2), RecordsToCsvText(*rows))
          .ok());
  Pipeline pipeline = Pipeline::Standard();
  PipelineContext ctx = MakeContext(2);
  PipelineRunReport report = pipeline.Run(&ctx);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.failure.find("not a SeriesBlock"), std::string::npos)
      << report.failure;
  bool error_incident = false;
  for (const auto& incident : ctx.incidents) {
    if (incident.severity == IncidentSeverity::kError &&
        incident.module == "ingestion" &&
        incident.message.find("not a SeriesBlock") != std::string::npos) {
      error_incident = true;
    }
  }
  EXPECT_TRUE(error_incident);
}

TEST_F(FailureTest, FailedRunKeepsRegionDueForCatchUp) {
  // The data is fine; the telemetry store is down. The run must fail
  // without consuming the region's cadence slot.
  ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("fail", 2),
                         ExtractWeekBlock(*fleet_, 2))
                  .ok());
  Pipeline pipeline = Pipeline::Standard();
  PipelineScheduler scheduler(&pipeline, lake_.get(), &docs_);
  PipelineContext config;
  {
    ScopedFaultInjection fault({/*seed=*/1, /*rate=*/0.0});
    fault.registry().AddOutage("lake.get", "telemetry/fail", /*count=*/-1);
    auto run = scheduler.RunIfDue("fail", 2, config);
    EXPECT_FALSE(run.report.success);
    EXPECT_FALSE(run.alerts.empty());
  }
  // The outage clears; the region is still due and now succeeds.
  EXPECT_TRUE(scheduler.IsDue("fail", 2));
  auto retry = scheduler.RunIfDue("fail", 2, config);
  EXPECT_TRUE(retry.report.success) << retry.report.failure;
}

TEST_F(FailureTest, TransientStoreFaultRecoveredByRetry) {
  ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("fail", 2),
                         ExtractWeekBlock(*fleet_, 2))
                  .ok());
  ScopedFaultInjection fault({/*seed=*/1, /*rate=*/0.0});
  fault.registry().AddOutage("lake.get", "telemetry/fail", /*count=*/2);
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_backoff_millis = 0.0;
  Pipeline pipeline = Pipeline::Standard();
  PipelineScheduler scheduler(&pipeline, lake_.get(), &docs_, retry);
  PipelineContext config;
  auto run = scheduler.RunIfDue("fail", 2, config);
  EXPECT_TRUE(run.report.success) << run.report.failure;
  EXPECT_EQ(run.report.retries, 2);
  EXPECT_FALSE(run.report.retries_exhausted);
}

TEST_F(FailureTest, ExhaustedRetriesMarkTheRunForQuarantine) {
  ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("fail", 2),
                         ExtractWeekBlock(*fleet_, 2))
                  .ok());
  ScopedFaultInjection fault({/*seed=*/1, /*rate=*/0.0});
  fault.registry().AddOutage("lake.get", "telemetry/fail", /*count=*/-1);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff_millis = 0.0;
  Pipeline pipeline = Pipeline::Standard();
  PipelineScheduler scheduler(&pipeline, lake_.get(), &docs_, retry);
  PipelineContext config;
  auto run = scheduler.RunIfDue("fail", 2, config);
  EXPECT_FALSE(run.report.success);
  // `retries_exhausted` is what FleetRunner keys quarantine on: it
  // distinguishes a persistent infrastructure outage from a data bug
  // (which fails fast without retrying).
  EXPECT_TRUE(run.report.retries_exhausted);
  EXPECT_EQ(run.report.retries, 2);
}

TEST_F(FailureTest, UnknownModelFamilyFailsTraining) {
  ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("fail", 2),
                         ExtractWeekBlock(*fleet_, 2))
                  .ok());
  Pipeline pipeline = Pipeline::Standard();
  PipelineContext ctx = MakeContext(2);
  ctx.model_name = "prophet9000";
  PipelineRunReport report = pipeline.Run(&ctx);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.failure.find("training"), std::string::npos);
}

TEST_F(FailureTest, CorruptRegistryDegradesToDefaultWindows) {
  // Active pointer exists but the version document does not.
  ASSERT_TRUE(SetActiveVersion(&docs_, "fail", 42, "dangling").ok());
  // Mark one server predictable so only the endpoint is broken.
  Document acc;
  acc.partition_key = "fail";
  acc.id = "w0004:srv-x";
  acc.body = Json::MakeObject();
  acc.body["predictable"] = true;
  docs_.GetContainer(kAccuracyContainer)->Upsert(acc).Abort();

  ServiceFabricProperties properties;
  BackupScheduler scheduler(&docs_, &properties);
  DueServer due;
  due.server_id = "srv-x";
  due.recent_load =
      *LoadSeries::MakeEmpty(27 * kMinutesPerDay, 5, 288);
  due.default_start = 28 * kMinutesPerDay + 120;
  due.default_end = due.default_start + 60;
  due.backup_duration_minutes = 60;
  auto schedules = scheduler.ScheduleDay("fail", 28, {due});
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_EQ(schedules[0].decision,
            ScheduleDecision::kDefaultForecastFailed);
  EXPECT_EQ(schedules[0].window_start, due.default_start);
}

TEST_F(FailureTest, MalformedVersionDocRejectedByEndpoint) {
  Json no_models = Json::MakeObject();
  no_models["family"] = "persistent_prev_day";
  no_models["version"] = 1;
  EXPECT_FALSE(ModelEndpoint::FromVersionDoc(no_models).ok());

  Json empty_models = no_models;
  empty_models["models"] = Json::MakeObject();
  EXPECT_FALSE(ModelEndpoint::FromVersionDoc(empty_models).ok());

  Json bad_params = no_models;
  bad_params["models"] = Json::MakeObject();
  bad_params["models"]["srv"] = Json::MakeObject();  // missing "model"
  EXPECT_FALSE(ModelEndpoint::FromVersionDoc(bad_params).ok());
}

TEST_F(FailureTest, SeverelyDegradedTelemetryStillRuns) {
  RegionConfig config;
  config.name = "degraded";
  config.num_servers = 40;
  config.weeks = 4;
  config.seed = 9;
  config.telemetry.missing_sample_rate = 0.15;
  config.telemetry.missing_hour_rate = 0.10;
  SimulationOptions options;
  options.regions = {config};
  auto result = RunSimulation(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& run : result->regions[0].runs) {
    EXPECT_TRUE(run.success) << run.failure;
  }
  // Scheduling still happened (possibly with fewer moved windows).
  EXPECT_GT(result->regions[0].backups_scheduled, 0);
}

TEST_F(FailureTest, DocStoreSnapshotCorruptionFails) {
  std::string path = lake_->root() + "/snapshot.json";
  {
    std::ofstream out(path);
    out << "{\"container\": [{\"pk\": \"p\"";  // truncated JSON
  }
  DocStore store;
  EXPECT_FALSE(store.LoadFromFile(path).ok());
}

TEST_F(FailureTest, EmptyRegionListIsFine) {
  SimulationOptions options;
  auto result = RunSimulation(options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->regions.empty());
}

}  // namespace
}  // namespace seagull
