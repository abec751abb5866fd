#include "forecast/ssa.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "metrics/standard.h"

namespace seagull {
namespace {

constexpr double kTwoPi = 6.283185307179586;

// One week of a daily sinusoid on the 5-minute grid.
LoadSeries DailySine(double mean, double amplitude, int64_t days,
                     double noise = 0.0, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(days) * 288);
  for (int64_t i = 0; i < days * 288; ++i) {
    double phase = static_cast<double>(i % 288) / 288.0;
    double v = mean + amplitude * std::sin(kTwoPi * phase);
    if (noise > 0) v += rng.Gaussian(0.0, noise);
    values.push_back(v);
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(SsaTest, RecoversCleanSinusoid) {
  LoadSeries train = DailySine(30.0, 10.0, 7);
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  LoadSeries truth = DailySine(30.0, 10.0, 8).Slice(
      7 * kMinutesPerDay, 8 * kMinutesPerDay);
  double rmse = RootMeanSquaredError(*forecast, truth);
  EXPECT_LT(rmse, 1.0);
}

TEST(SsaTest, HandlesNoisySinusoid) {
  LoadSeries train = DailySine(30.0, 10.0, 7, 1.0);
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  LoadSeries truth = DailySine(30.0, 10.0, 8, 0.0).Slice(
      7 * kMinutesPerDay, 8 * kMinutesPerDay);
  double rmse = RootMeanSquaredError(*forecast, truth);
  EXPECT_LT(rmse, 4.0);
}

TEST(SsaTest, FlatSeriesForecastsMean) {
  std::vector<double> flat(2016, 25.0);
  LoadSeries train =
      std::move(LoadSeries::Make(0, 5, std::move(flat))).ValueOrDie();
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, kMinutesPerWeek, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); i += 7) {
    EXPECT_NEAR(forecast->ValueAt(i), 25.0, 0.5);
  }
}

TEST(SsaTest, ForecastBeforeFitFails) {
  SsaForecast model;
  LoadSeries any = DailySine(10, 1, 1);
  EXPECT_TRUE(model.Forecast(any, kMinutesPerDay, kMinutesPerDay)
                  .status()
                  .IsFailedPrecondition());
}

TEST(SsaTest, TooLittleHistoryFails) {
  auto tiny = LoadSeries::Make(0, 5, {1.0, 2.0});
  SsaForecast model;
  EXPECT_FALSE(model.Fit(*tiny).ok());
}

TEST(SsaTest, ToleratesMissingSamples) {
  LoadSeries train = DailySine(30.0, 10.0, 7);
  for (int64_t i = 100; i < 160; ++i) train.SetValue(i, kMissingValue);
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  EXPECT_TRUE(forecast.ok());
}

TEST(SsaTest, OutputsNonNegativeBoundedValues) {
  LoadSeries train = DailySine(5.0, 10.0, 7, 2.0);  // dips below zero pre-clamp
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); ++i) {
    EXPECT_GE(forecast->ValueAt(i), 0.0);
    EXPECT_LE(forecast->ValueAt(i), 300.0);
  }
}

TEST(SsaTest, SerializationRoundTrip) {
  LoadSeries train = DailySine(30.0, 10.0, 7);
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  auto doc = model.Serialize();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->GetString("model"), "ssa");

  SsaForecast restored;
  ASSERT_TRUE(restored.Deserialize(*doc).ok());
  auto f1 = model.Forecast(train, 7 * kMinutesPerDay, 2 * 60);
  auto f2 = restored.Forecast(train, 7 * kMinutesPerDay, 2 * 60);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  for (int64_t i = 0; i < f1->size(); ++i) {
    EXPECT_NEAR(f1->ValueAt(i), f2->ValueAt(i), 1e-9);
  }
}

TEST(SsaTest, HostileDocumentsRestoreInvalid) {
  // An interval of 0 reached `start % 0` in Forecast (SIGFPE), and the
  // integer fields were cast from doubles unchecked.
  LoadSeries train = DailySine(30.0, 10.0, 7);
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  const Json fitted = std::move(model.Serialize()).ValueOrDie();
  const int64_t lags = static_cast<int64_t>(fitted["lrf"].AsArray().size());
  const std::pair<const char*, double> cases[] = {
      {"interval", 0},
      {"interval", -5},
      {"interval", 2.5},
      {"interval", kMinutesPerDay + 1},
      {"rank", -1},
      {"rank", static_cast<double>(lags + 2)},
      {"rank", 1e300}};
  for (const auto& [key, value] : cases) {
    Json doc = fitted;
    doc[key] = value;
    auto restored = ModelFactory::Global().Restore(doc);
    EXPECT_TRUE(restored.status().IsInvalid())
        << key << " = " << value << ": " << restored.status().ToString();
  }
  // A rejected document leaves the model unfitted.
  Json zero = fitted;
  zero["interval"] = 0;
  EXPECT_NE(model.Deserialize(zero).ToString().find("interval"),
            std::string::npos);
  EXPECT_TRUE(model.Forecast(train, 7 * kMinutesPerDay, 60)
                  .status()
                  .IsFailedPrecondition());
}

TEST(SsaTest, SerializeBeforeFitFails) {
  SsaForecast model;
  EXPECT_TRUE(model.Serialize().status().IsFailedPrecondition());
}

TEST(SsaTest, RankIsBounded) {
  LoadSeries train = DailySine(30.0, 10.0, 7, 2.0);
  SsaOptions options;
  options.max_components = 5;
  SsaForecast model(options);
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_LE(model.rank(), 5);
  EXPECT_GE(model.rank(), 1);
}

TEST(SsaTest, ShortSeriesShrinksWindow) {
  // 3 days only; default window 72 fits (2*72-1 < 864).
  LoadSeries train = DailySine(20.0, 5.0, 3);
  SsaForecast model;
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 3 * kMinutesPerDay, kMinutesPerDay);
  EXPECT_TRUE(forecast.ok());
}

}  // namespace
}  // namespace seagull
