#include <gtest/gtest.h>

#include <algorithm>

#include "pipeline/accuracy.h"
#include "pipeline/deployment.h"
#include "pipeline/features.h"
#include "pipeline/ingestion.h"
#include "pipeline/pipeline.h"
#include "pipeline/training.h"
#include "pipeline/validation.h"
#include "telemetry/emitter.h"

namespace seagull {
namespace {

class PipelineModulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto lake = LakeStore::OpenTemporary("modules");
    ASSERT_TRUE(lake.ok());
    lake_ = std::make_unique<LakeStore>(std::move(lake).ValueUnsafe());

    RegionConfig config;
    config.name = "modtest";
    config.num_servers = 40;
    config.weeks = 4;
    config.seed = 404;
    fleet_ = std::make_unique<Fleet>(Fleet::Generate(config));
    ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("modtest", 2),
                           ExtractWeekBlock(*fleet_, 2))
                    .ok());

    ctx_.region = "modtest";
    ctx_.week = 2;
    ctx_.lake = lake_.get();
    ctx_.docs = &docs_;
  }

  // Runs modules up to and including `n` stages of the standard chain.
  Status RunStages(int n) {
    std::vector<std::unique_ptr<PipelineModule>> modules;
    modules.push_back(std::make_unique<DataIngestionModule>());
    modules.push_back(std::make_unique<DataValidationModule>());
    modules.push_back(std::make_unique<FeatureExtractionModule>());
    modules.push_back(std::make_unique<ModelTrainingModule>());
    modules.push_back(std::make_unique<ModelDeploymentModule>());
    modules.push_back(std::make_unique<AccuracyEvaluationModule>());
    for (int i = 0; i < n; ++i) {
      SEAGULL_RETURN_NOT_OK(modules[static_cast<size_t>(i)]->Run(&ctx_));
    }
    return Status::OK();
  }

  std::unique_ptr<LakeStore> lake_;
  std::unique_ptr<Fleet> fleet_;
  DocStore docs_;
  PipelineContext ctx_;
};

TEST_F(PipelineModulesTest, IngestionReadsServers) {
  ASSERT_TRUE(RunStages(1).ok());
  // SGB1 ingestion delivers the extraction already grouped per server.
  EXPECT_FALSE(ctx_.servers.empty());
  EXPECT_LE(ctx_.servers.size(), 40u);
  EXPECT_GT(ctx_.stats["ingestion.rows"], 1000);
  EXPECT_GT(ctx_.stats["ingestion.bytes"], 0);
  EXPECT_TRUE(std::is_sorted(
      ctx_.servers.begin(), ctx_.servers.end(),
      [](const ServerTelemetry& a, const ServerTelemetry& b) {
        return a.server_id < b.server_id;
      }));
}

TEST_F(PipelineModulesTest, IngestionMissingBlobRaisesIncident) {
  ctx_.week = 9;  // nothing extracted for week 9
  DataIngestionModule ingestion;
  Status st = ingestion.Run(&ctx_);
  EXPECT_TRUE(st.IsNotFound());
  ASSERT_FALSE(ctx_.incidents.empty());
  EXPECT_EQ(ctx_.incidents[0].severity, IncidentSeverity::kError);
}

TEST_F(PipelineModulesTest, ValidationGroupsServers) {
  ASSERT_TRUE(RunStages(2).ok());
  EXPECT_FALSE(ctx_.servers.empty());
  EXPECT_LE(ctx_.servers.size(), 40u);
  // Schema file was deduced and persisted.
  EXPECT_TRUE(lake_->Exists(DataValidationModule::SchemaKey("modtest")));
}

TEST_F(PipelineModulesTest, ValidationDropsBadRows) {
  ASSERT_TRUE(RunStages(1).ok());
  ASSERT_GE(ctx_.servers.size(), 2u);
  // An impossible CPU sample in the middle of the first server.
  ServerTelemetry& bad_cpu = ctx_.servers[0];
  int64_t at = bad_cpu.load.size() / 2;
  while (at < bad_cpu.load.size() && bad_cpu.load.MissingAt(at)) ++at;
  ASSERT_LT(at, bad_cpu.load.size());
  const MinuteStamp bad_time = bad_cpu.load.TimeAt(at);
  bad_cpu.load.SetValue(at, 250.0);
  const std::string bad_cpu_id = bad_cpu.server_id;
  // A backup window that ends before it starts, on the second server.
  ServerTelemetry& bad_window = ctx_.servers[1];
  bad_window.default_backup_end = bad_window.default_backup_start - 5;
  const std::string bad_window_id = bad_window.server_id;
  const int64_t bad_window_rows = bad_window.load.CountPresent();
  const size_t servers_before = ctx_.servers.size();

  DataValidationModule validation;
  ASSERT_TRUE(validation.Run(&ctx_).ok());
  // The sample becomes a gap and counts once; the broken window drops
  // the server and counts each of its present samples.
  EXPECT_DOUBLE_EQ(ctx_.stats["validation.dropped_bounds"], 1.0);
  EXPECT_DOUBLE_EQ(ctx_.stats["validation.dropped_window"],
                   static_cast<double>(bad_window_rows));
  // Off-grid and duplicate rows never survive the SGB1 decode.
  EXPECT_DOUBLE_EQ(ctx_.stats["validation.dropped_grid"], 0.0);
  EXPECT_DOUBLE_EQ(ctx_.stats["validation.duplicates"], 0.0);
  ASSERT_EQ(ctx_.servers.size(), servers_before - 1);
  bool kept_bad_cpu = false;
  for (const auto& st : ctx_.servers) {
    EXPECT_NE(st.server_id, bad_window_id);
    if (st.server_id == bad_cpu_id) {
      kept_bad_cpu = true;
      EXPECT_TRUE(IsMissing(st.load.ValueAtTime(bad_time)));
    }
  }
  EXPECT_TRUE(kept_bad_cpu);
  // A warning incident about dropped rows was raised.
  bool warned = false;
  for (const auto& incident : ctx_.incidents) {
    if (incident.severity == IncidentSeverity::kWarning) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST_F(PipelineModulesTest, ValidationRejectsMostlyInvalidFile) {
  ASSERT_TRUE(RunStages(1).ok());
  // Corrupt three quarters of all present samples.
  int64_t rows = 0;
  for (const auto& st : ctx_.servers) rows += st.load.CountPresent();
  int64_t corrupt = rows * 3 / 4;
  for (auto& st : ctx_.servers) {
    for (int64_t i = 0; i < st.load.size() && corrupt > 0; ++i) {
      if (st.load.MissingAt(i)) continue;
      st.load.SetValue(i, 500.0);
      --corrupt;
    }
  }
  ASSERT_EQ(corrupt, 0);
  DataValidationModule validation;
  EXPECT_TRUE(validation.Run(&ctx_).IsDataLoss());
  ASSERT_FALSE(ctx_.incidents.empty());
  EXPECT_EQ(ctx_.incidents.back().severity, IncidentSeverity::kError);
  EXPECT_EQ(ctx_.incidents.back().message,
            "more than half of the rows are invalid");
}

TEST_F(PipelineModulesTest, ValidationDetectsSchemaBoundAnomaly) {
  // Build a region whose history sits in a narrow band, deduce its
  // schema, then feed data far outside that band.
  auto make_servers = [](double level) {
    ServerTelemetry st;
    st.server_id = "bound-srv";
    st.load = std::move(LoadSeries::Make(
                            0, kServerIntervalMinutes,
                            std::vector<double>(
                                kMinutesPerDay / kServerIntervalMinutes,
                                level)))
                  .ValueOrDie();
    st.default_backup_start = 0;
    st.default_backup_end = 60;
    return std::vector<ServerTelemetry>{std::move(st)};
  };
  PipelineContext ctx;
  ctx.region = "bound-region";
  ctx.week = 0;
  ctx.lake = lake_.get();
  ctx.docs = &docs_;
  ctx.servers = make_servers(20.0);
  DataValidationModule validation;
  ASSERT_TRUE(validation.Run(&ctx).ok());  // deduces schema [20, 20]

  PipelineContext ctx2;
  ctx2.region = "bound-region";
  ctx2.week = 1;
  ctx2.lake = lake_.get();
  ctx2.docs = &docs_;
  ctx2.servers = make_servers(80.0);  // far above the historical band
  ASSERT_TRUE(validation.Run(&ctx2).ok());
  bool bound_anomaly = false;
  for (const auto& incident : ctx2.incidents) {
    if (incident.message.find("bound anomaly") != std::string::npos) {
      EXPECT_EQ(incident.severity, IncidentSeverity::kWarning);
      bound_anomaly = true;
    }
  }
  EXPECT_TRUE(bound_anomaly);
}

TEST_F(PipelineModulesTest, FeaturesClassifyFleet) {
  ASSERT_TRUE(RunStages(3).ok());
  ASSERT_EQ(ctx_.features.size(), ctx_.servers.size());
  int64_t classified = 0;
  for (const auto& f : ctx_.features) {
    EXPECT_FALSE(f.server_id.empty());
    EXPECT_GT(f.backup_duration_minutes, 0);
    ++classified;
  }
  EXPECT_GT(classified, 0);
  // Stats cover all classes.
  double total = ctx_.stats["features.short_lived"] +
                 ctx_.stats["features.stable"] + ctx_.stats["features.daily"] +
                 ctx_.stats["features.weekly"] +
                 ctx_.stats["features.no_pattern"];
  EXPECT_DOUBLE_EQ(total, static_cast<double>(ctx_.features.size()));
}

TEST_F(PipelineModulesTest, TrainingHeuristicFamilyIsSingleEntry) {
  ctx_.model_name = "persistent_prev_day";
  ASSERT_TRUE(RunStages(4).ok());
  EXPECT_EQ(ctx_.trained.size(), 1u);
  EXPECT_TRUE(ctx_.trained.count(""));
}

TEST_F(PipelineModulesTest, TrainingPerServerFamily) {
  ctx_.model_name = "ssa";
  ASSERT_TRUE(RunStages(4).ok());
  EXPECT_GT(ctx_.trained.size(), 1u);
  EXPECT_FALSE(ctx_.trained.count(""));
  for (const auto& [server_id, doc] : ctx_.trained) {
    EXPECT_EQ(doc["model"].AsString(), "ssa") << server_id;
  }
}

TEST_F(PipelineModulesTest, DeploymentCreatesVersionAndEndpoint) {
  ASSERT_TRUE(RunStages(5).ok());
  EXPECT_EQ(ctx_.deployed_version, 1);
  auto active = ActiveVersion(&docs_, "modtest");
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(*active, 1);
  auto endpoint = LoadActiveEndpoint(&docs_, "modtest");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint->family(), "persistent_prev_day");
  EXPECT_TRUE(endpoint->Serves("anything"));  // fleet-wide heuristic
}

TEST_F(PipelineModulesTest, DeploymentIncrementsVersions) {
  ASSERT_TRUE(RunStages(5).ok());
  PipelineContext ctx2 = ctx_;
  ModelDeploymentModule deployment;
  ASSERT_TRUE(deployment.Run(&ctx2).ok());
  EXPECT_EQ(ctx2.deployed_version, 2);
  EXPECT_EQ(*ActiveVersion(&docs_, "modtest"), 2);
}

TEST_F(PipelineModulesTest, HostileRegistryVersionsAreCheckedNotCast) {
  // Registry documents are untrusted like the models they hold: a
  // version of 1e300 was cast to int64_t unchecked.
  ASSERT_TRUE(RunStages(5).ok());
  Container* registry = docs_.GetContainer(kModelRegistryContainer);
  Document active =
      std::move(registry->Get("modtest", kActiveModelDocId)).ValueOrDie();
  active.body["version"] = 1e300;
  ASSERT_TRUE(registry->Upsert(active).ok());
  EXPECT_TRUE(ActiveVersion(&docs_, "modtest").status().IsInvalid());
  EXPECT_TRUE(LoadActiveEndpoint(&docs_, "modtest").status().IsInvalid());

  Document v1 = std::move(registry->Get("modtest", "v000001")).ValueOrDie();
  v1.body["version"] = 1e300;
  ASSERT_TRUE(registry->Upsert(v1).ok());
  EXPECT_TRUE(ModelEndpoint::FromVersionDoc(v1.body).status().IsInvalid());
  // The next deployment counts the unreadable version as none and
  // replaces its document.
  PipelineContext ctx2 = ctx_;
  ModelDeploymentModule deployment;
  ASSERT_TRUE(deployment.Run(&ctx2).ok());
  EXPECT_EQ(ctx2.deployed_version, 1);
  EXPECT_EQ(*ActiveVersion(&docs_, "modtest"), 1);
  EXPECT_TRUE(LoadActiveEndpoint(&docs_, "modtest").ok());
}

TEST_F(PipelineModulesTest, EndpointPredictsFromRecentLoad) {
  ASSERT_TRUE(RunStages(5).ok());
  auto endpoint = LoadActiveEndpoint(&docs_, "modtest");
  ASSERT_TRUE(endpoint.ok());
  const ServerTelemetry& st = ctx_.servers[0];
  MinuteStamp day = st.load.end();
  auto forecast = endpoint->Predict(st.server_id, st.load, day,
                                    kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->size(), 288);
}

TEST_F(PipelineModulesTest, AccuracyProducesRecordsAndDocs) {
  ASSERT_TRUE(RunStages(6).ok());
  ASSERT_EQ(ctx_.accuracy_records.size(), ctx_.servers.size());
  int64_t long_lived = 0, predictable = 0;
  for (const auto& rec : ctx_.accuracy_records) {
    if (rec.long_lived) ++long_lived;
    if (rec.predictable) ++predictable;
  }
  EXPECT_GT(long_lived, 0);
  EXPECT_GT(predictable, 0);
  EXPECT_LE(predictable, long_lived);
  // Documents were stored per server for week 3.
  Container* container = docs_.GetContainer(kAccuracyContainer);
  EXPECT_EQ(container->Count(),
            static_cast<int64_t>(ctx_.accuracy_records.size()));
}

TEST_F(PipelineModulesTest, MostStableServersArePredictable) {
  ASSERT_TRUE(RunStages(6).ok());
  int64_t stable_total = 0, stable_predictable = 0;
  for (size_t i = 0; i < ctx_.features.size(); ++i) {
    if (ctx_.features[i].classification.server_class !=
        ServerClass::kStable) {
      continue;
    }
    ++stable_total;
    if (ctx_.accuracy_records[i].predictable) ++stable_predictable;
  }
  ASSERT_GT(stable_total, 0);
  // Servers whose backup day falls on the very first simulated day have
  // no prior day to forecast from, so the ceiling here is ~6/7 even for
  // perfectly stable servers (the paper's production number is 75% of
  // all long-lived servers, §5.4).
  EXPECT_GT(static_cast<double>(stable_predictable) /
                static_cast<double>(stable_total),
            0.6);
}

}  // namespace
}  // namespace seagull
