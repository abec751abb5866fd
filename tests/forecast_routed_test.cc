#include "forecast/routed.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace seagull {
namespace {

constexpr double kTwoPi = 6.283185307179586;

LoadSeries FlatWeek(double level, double noise, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    values.push_back(level + rng.Gaussian(0.0, noise));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

LoadSeries DailyWeek(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    double phase = static_cast<double>(i % 288) / 288.0;
    values.push_back(15.0 +
                     30.0 * std::exp(-std::pow((phase - 0.45) * 8, 2)) +
                     rng.Gaussian(0.0, 1.0));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

LoadSeries ChaoticWeek(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  double level = 25.0;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    if (i % 288 == 0) level = rng.Uniform(5.0, 55.0);
    values.push_back(level + rng.Gaussian(0.0, 2.0));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(RoutedTest, StableSeriesRoutesToWeekAverage) {
  RoutedForecast model;
  ASSERT_TRUE(model.Fit(FlatWeek(20.0, 1.0, 1)).ok());
  EXPECT_EQ(model.routed_class(), ServerClass::kStable);
  EXPECT_EQ(model.delegate_family(), "persistent_week_avg");
}

TEST(RoutedTest, DailyPatternRoutesToPreviousDay) {
  RoutedForecast model;
  ASSERT_TRUE(model.Fit(DailyWeek(2)).ok());
  EXPECT_EQ(model.routed_class(), ServerClass::kDailyPattern);
  EXPECT_EQ(model.delegate_family(), "persistent_prev_day");
}

TEST(RoutedTest, ChaoticSeriesRoutesToUnstableFamily) {
  RoutedForecast model;
  ASSERT_TRUE(model.Fit(ChaoticWeek(3)).ok());
  EXPECT_EQ(model.routed_class(), ServerClass::kNoPattern);
  EXPECT_EQ(model.delegate_family(), "ssa");
}

TEST(RoutedTest, ForecastDelegates) {
  RoutedForecast model;
  LoadSeries train = FlatWeek(25.0, 0.8, 4);
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  // Week-average delegate: flat forecast at the mean.
  for (int64_t i = 0; i < forecast->size(); i += 17) {
    EXPECT_NEAR(forecast->ValueAt(i), 25.0, 1.0);
  }
}

TEST(RoutedTest, ForecastBeforeFitFails) {
  RoutedForecast model;
  LoadSeries any = FlatWeek(10.0, 1.0, 5);
  EXPECT_TRUE(model.Forecast(any, 0, kMinutesPerDay)
                  .status()
                  .IsFailedPrecondition());
}

TEST(RoutedTest, SerializationRoundTripKeepsDelegate) {
  RoutedForecast model;
  LoadSeries train = ChaoticWeek(7);
  ASSERT_TRUE(model.Fit(train).ok());
  Json doc = std::move(model.Serialize()).ValueOrDie();
  EXPECT_EQ(doc["model"].AsString(), "routed");

  auto restored = ModelFactory::Global().Restore(doc);
  ASSERT_TRUE(restored.ok());
  auto f1 = model.Forecast(train, 7 * kMinutesPerDay, 120);
  auto f2 = (*restored)->Forecast(train, 7 * kMinutesPerDay, 120);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  for (int64_t i = 0; i < f1->size(); ++i) {
    EXPECT_NEAR(f1->ValueAt(i), f2->ValueAt(i), 1e-9);
  }
}

TEST(RoutedTest, DeserializeRejectsCorruptDocs) {
  RoutedForecast model;
  Json bad = Json::MakeObject();
  bad["routed_class"] = 99;
  EXPECT_FALSE(model.Deserialize(bad).ok());
  Json no_delegate = Json::MakeObject();
  no_delegate["routed_class"] = 1;
  EXPECT_FALSE(model.Deserialize(no_delegate).ok());
}

TEST(RoutedTest, HostileDocumentsRestoreInvalid) {
  // The class used to be cast to int before its range check, and a
  // hostile delegate is restored through its own family's checks.
  RoutedForecast model;
  LoadSeries train = ChaoticWeek(7);
  ASSERT_TRUE(model.Fit(train).ok());
  ASSERT_EQ(model.delegate_family(), "ssa");
  const Json fitted = std::move(model.Serialize()).ValueOrDie();
  std::vector<Json> docs;
  for (double cls : {1e300, -1.0, 5.0, 0.5}) {
    docs.push_back(fitted);
    docs.back()["routed_class"] = cls;
  }
  docs.push_back(fitted);
  docs.back()["delegate"]["interval"] = 0;
  for (const Json& doc : docs) {
    auto restored = ModelFactory::Global().Restore(doc);
    EXPECT_TRUE(restored.status().IsInvalid())
        << restored.status().ToString();
  }
  // A rejected document leaves the model unfitted.
  EXPECT_FALSE(model.Deserialize(docs.back()).ok());
  EXPECT_TRUE(model.Forecast(train, 7 * kMinutesPerDay, 60)
                  .status()
                  .IsFailedPrecondition());
}

TEST(RoutedTest, RegisteredInGlobalFactory) {
  auto model = ModelFactory::Global().Create("routed");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->name(), "routed");
  EXPECT_TRUE((*model)->requires_training());
}

TEST(RoutedTest, TooLittleHistoryFails) {
  RoutedForecast model;
  auto tiny = LoadSeries::Make(0, 5, {1.0, 2.0});
  EXPECT_FALSE(model.Fit(*tiny).ok());
}

}  // namespace
}  // namespace seagull
