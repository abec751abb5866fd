/// \file pipeline_inference_test.cc
/// \brief Tests for the Inference module's stored predictions.

#include <gtest/gtest.h>

#include "pipeline/inference.h"
#include "pipeline/pipeline.h"
#include "scheduling/simulation.h"
#include "telemetry/emitter.h"

namespace seagull {
namespace {

class InferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto lake = LakeStore::OpenTemporary("inference");
    ASSERT_TRUE(lake.ok());
    lake_ = std::make_unique<LakeStore>(std::move(lake).ValueUnsafe());
    RegionConfig config;
    config.name = "inf";
    config.num_servers = 25;
    config.weeks = 4;
    config.seed = 21;
    fleet_ = std::make_unique<Fleet>(Fleet::Generate(config));
    ASSERT_TRUE(lake_->Put(LakeStore::TelemetryKey("inf", 2),
                           ExtractWeekBlock(*fleet_, 2))
                    .ok());
    ctx_.region = "inf";
    ctx_.week = 2;
    ctx_.lake = lake_.get();
    ctx_.docs = &docs_;
    Pipeline pipeline = Pipeline::Standard();
    report_ = pipeline.Run(&ctx_);
  }

  std::unique_ptr<LakeStore> lake_;
  std::unique_ptr<Fleet> fleet_;
  DocStore docs_;
  PipelineContext ctx_;
  PipelineRunReport report_;
};

TEST_F(InferenceTest, StandardChainIncludesInference) {
  ASSERT_TRUE(report_.success) << report_.failure;
  EXPECT_GT(report_.MillisOf("inference"), 0.0);
  EXPECT_GT(ctx_.stats["inference.predictions"], 0.0);
}

TEST_F(InferenceTest, PredictionsStoredPerServerDay) {
  ASSERT_TRUE(report_.success);
  Container* predictions = docs_.GetContainer(kPredictionsContainer);
  // Up to 7 predictions per server with telemetry.
  EXPECT_GT(predictions->Count(), 0);
  EXPECT_LE(predictions->Count(),
            static_cast<int64_t>(ctx_.servers.size()) * 7);
  // Spot-check one document's shape.
  auto docs = predictions->ReadPartition("inf");
  ASSERT_FALSE(docs.empty());
  const Json& body = docs[0].body;
  EXPECT_TRUE(body["server_id"].is_string());
  EXPECT_TRUE(body["window_start"].is_number());
  EXPECT_TRUE(body["duration_minutes"].is_number());
  // The predicted day falls in the scheduling week (week 3).
  int64_t day = static_cast<int64_t>(body["day"].AsDouble());
  EXPECT_GE(day, 21);
  EXPECT_LT(day, 28);
  // The window lies within its day.
  MinuteStamp start =
      static_cast<MinuteStamp>(body["window_start"].AsDouble());
  EXPECT_EQ(DayIndex(start), day);
}

}  // namespace
}  // namespace seagull
