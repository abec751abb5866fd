#include "scheduling/model_eval.h"

#include <gtest/gtest.h>

namespace seagull {
namespace {

RegionConfig SmallConfig(uint64_t seed, double no_pattern = 0.0) {
  RegionConfig config;
  config.name = "eval";
  config.num_servers = 30;
  config.weeks = 5;
  config.seed = seed;
  config.mix.short_lived = 0.0;
  config.mix.stable = 1.0 - no_pattern;
  config.mix.daily = 0.0;
  config.mix.weekly = 0.0;
  config.mix.no_pattern = no_pattern;
  return config;
}

ModelEvalOptions Target4() {
  ModelEvalOptions options;
  options.target_week = 4;
  return options;
}

TEST(ModelEvalTest, StableFleetIsNearlyPerfectWithPersistent) {
  Fleet fleet = Fleet::Generate(SmallConfig(1));
  auto result =
      EvaluateModelOnFleet(fleet, "persistent_prev_day", Target4());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->model, "persistent_prev_day");
  EXPECT_GT(result->servers, 20);
  EXPECT_EQ(result->server_days, result->servers * 3);
  EXPECT_GT(result->PctWindowsCorrect(), 95.0);
  EXPECT_GT(result->PctLoadsAccurate(), 90.0);
  EXPECT_GT(result->PctPredictable(), 80.0);
  // Heuristic family: zero training time recorded.
  EXPECT_DOUBLE_EQ(result->train_millis, 0.0);
  EXPECT_GT(result->inference_millis, 0.0);
  EXPECT_GT(result->eval_millis, 0.0);
}

TEST(ModelEvalTest, TrainableFamilyRecordsTrainingTime) {
  Fleet fleet = Fleet::Generate(SmallConfig(2));
  ModelEvalOptions options = Target4();
  options.max_servers = 5;
  auto result = EvaluateModelOnFleet(fleet, "ssa", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->servers, 5);
  EXPECT_GT(result->train_millis, 0.0);
}

TEST(ModelEvalTest, MaxServersCaps) {
  Fleet fleet = Fleet::Generate(SmallConfig(3));
  ModelEvalOptions options = Target4();
  options.max_servers = 7;
  auto result =
      EvaluateModelOnFleet(fleet, "persistent_prev_day", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->servers, 7);
}

TEST(ModelEvalTest, FilterRestrictsCohort) {
  RegionConfig config = SmallConfig(4, /*no_pattern=*/0.5);
  Fleet fleet = Fleet::Generate(config);
  ModelEvalOptions all = Target4();
  ModelEvalOptions unstable_only = Target4();
  unstable_only.filter = FilterUnstableNoPattern();
  auto everything =
      EvaluateModelOnFleet(fleet, "persistent_prev_day", all);
  auto unstable =
      EvaluateModelOnFleet(fleet, "persistent_prev_day", unstable_only);
  ASSERT_TRUE(everything.ok());
  ASSERT_TRUE(unstable.ok());
  EXPECT_LT(unstable->servers, everything->servers);
  EXPECT_GT(unstable->servers, 0);
  // The unstable cohort is strictly harder.
  EXPECT_LE(unstable->PctPredictable(),
            everything->PctPredictable() + 1e-9);
}

TEST(ModelEvalTest, UnknownModelFails) {
  Fleet fleet = Fleet::Generate(SmallConfig(5));
  EXPECT_TRUE(EvaluateModelOnFleet(fleet, "nonexistent", Target4())
                  .status()
                  .IsNotFound());
}

TEST(ModelEvalTest, PercentagesZeroWhenNothingEvaluated) {
  ModelEvalResult empty;
  EXPECT_DOUBLE_EQ(empty.PctWindowsCorrect(), 0.0);
  EXPECT_DOUBLE_EQ(empty.PctLoadsAccurate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.PctPredictable(), 0.0);
}

TEST(ModelEvalTest, CohortFilters) {
  ServerProfile stable;
  stable.archetype = ServerArchetype::kStable;
  stable.created_at = 0;
  stable.deleted_at = 5 * kMinutesPerWeek;
  ServerProfile short_lived = stable;
  short_lived.deleted_at = kMinutesPerWeek;
  ServerProfile chaotic = stable;
  chaotic.archetype = ServerArchetype::kNoPattern;

  EXPECT_TRUE(FilterLongLived()(stable));
  EXPECT_FALSE(FilterLongLived()(short_lived));
  EXPECT_TRUE(FilterStableOrPattern()(stable));
  EXPECT_FALSE(FilterStableOrPattern()(chaotic));
  EXPECT_TRUE(FilterUnstableNoPattern()(chaotic));
  EXPECT_FALSE(FilterUnstableNoPattern()(stable));
}

TEST(ModelEvalTest, EarlyTargetWeekLimitsEvidence) {
  // target_week == long_lived_weeks means the first evidence week's
  // backup day has no training week before it; those servers cannot be
  // predictable but are still counted.
  Fleet fleet = Fleet::Generate(SmallConfig(6));
  ModelEvalOptions early;
  early.target_week = 3;
  auto result = EvaluateModelOnFleet(fleet, "persistent_prev_day", early);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->servers, 0);
  // Week-0 Monday backups are skipped (no prior week), so server_days
  // can fall below servers * 3.
  EXPECT_LE(result->server_days, result->servers * 3);
}

}  // namespace
}  // namespace seagull
