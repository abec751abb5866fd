#include "forecast/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "forecast/persistent.h"

namespace seagull {
namespace {

constexpr double kTwoPi = 6.283185307179586;

LoadSeries TrainingSeries() {
  std::vector<double> values;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    double phase = static_cast<double>(i % 288) / 288.0;
    values.push_back(25.0 + 10.0 * std::sin(kTwoPi * phase));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(ModelFactoryTest, AllBuiltInFamiliesRegistered) {
  auto names = ModelFactory::Global().Names();
  for (const char* expected :
       {"persistent_prev_day", "persistent_prev_eq_day",
        "persistent_week_avg", "ssa", "feedforward", "additive", "arima"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(ModelFactoryTest, CreateUnknownFails) {
  EXPECT_TRUE(
      ModelFactory::Global().Create("prophet9000").status().IsNotFound());
}

TEST(ModelFactoryTest, CreatedModelReportsItsName) {
  for (const auto& name : ModelFactory::Global().Names()) {
    auto model = ModelFactory::Global().Create(name);
    ASSERT_TRUE(model.ok()) << name;
    EXPECT_EQ((*model)->name(), name);
  }
}

TEST(ModelFactoryTest, OnlyPersistentSkipsTraining) {
  for (const auto& name : ModelFactory::Global().Names()) {
    auto model = std::move(ModelFactory::Global().Create(name)).ValueOrDie();
    bool is_persistent = name.rfind("persistent", 0) == 0;
    EXPECT_EQ(model->requires_training(), !is_persistent) << name;
  }
}

TEST(ModelFactoryTest, RestoreRoundTripsEveryTrainableFamily) {
  LoadSeries train = TrainingSeries();
  // Keep the expensive families fast by restricting to the cheap ones
  // plus SSA; the per-family tests cover the rest.
  for (const std::string name :
       {"persistent_prev_day", "persistent_week_avg", "ssa"}) {
    auto model = std::move(ModelFactory::Global().Create(name)).ValueOrDie();
    ASSERT_TRUE(model->Fit(train).ok()) << name;
    Json doc = std::move(model->Serialize()).ValueOrDie();
    auto restored = ModelFactory::Global().Restore(doc);
    ASSERT_TRUE(restored.ok()) << name;
    EXPECT_EQ((*restored)->name(), name);
    auto f1 = model->Forecast(train, train.end(), 60);
    auto f2 = (*restored)->Forecast(train, train.end(), 60);
    ASSERT_TRUE(f1.ok());
    ASSERT_TRUE(f2.ok());
    for (int64_t i = 0; i < f1->size(); ++i) {
      EXPECT_NEAR(f1->ValueAt(i), f2->ValueAt(i), 1e-9) << name;
    }
  }
}

TEST(ModelFactoryTest, RestoreRejectsMissingModelField) {
  Json doc = Json::MakeObject();
  doc["variant"] = 0;
  EXPECT_FALSE(ModelFactory::Global().Restore(doc).ok());
}

TEST(ModelFactoryTest, RestoreRejectsCorruptParams) {
  Json doc = Json::MakeObject();
  doc["model"] = "ssa";  // but no lrf/mean fields
  EXPECT_FALSE(ModelFactory::Global().Restore(doc).ok());
}

TEST(ModelFactoryTest, CustomRegistration) {
  ModelFactory factory;
  factory.Register("custom", [] {
    return std::make_unique<PersistentForecast>(
        PersistentVariant::kPreviousDay);
  });
  auto model = factory.Create("custom");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(factory.Names(), (std::vector<std::string>{"custom"}));
}

}  // namespace
}  // namespace seagull
