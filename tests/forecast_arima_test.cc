#include "forecast/arima.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "metrics/standard.h"

namespace seagull {
namespace {

ArimaOptions FastOptions() {
  ArimaOptions o;
  o.max_p = 2;
  o.max_q = 1;
  o.max_d = 1;
  o.iterations = 60;
  return o;
}

// AR(1) process x_t = c + phi x_{t-1} + eps around a mean level.
LoadSeries Ar1Series(double phi, double mean, double sigma, int64_t n,
                     uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  double x = mean;
  for (int64_t i = 0; i < n; ++i) {
    x = mean * (1 - phi) + phi * x + rng.Gaussian(0.0, sigma);
    values.push_back(std::max(0.0, x));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(ArimaTest, FitsAr1AndBeatsNaiveMean) {
  LoadSeries train = Ar1Series(0.8, 30.0, 2.0, 1000);
  ArimaForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_GE(model.order_p() + model.order_q() + model.order_d(), 1);
  EXPECT_TRUE(std::isfinite(model.aic()));
}

TEST(ArimaTest, ForecastConvergesTowardMeanLevel) {
  LoadSeries train = Ar1Series(0.7, 40.0, 1.0, 1500);
  ArimaForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast =
      model.Forecast(train, train.end(), kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  // Long-horizon AR forecasts revert toward the process mean.
  double tail_mean = forecast->MeanInRange(
      forecast->end() - 4 * 60, forecast->end());
  EXPECT_NEAR(tail_mean, 40.0, 8.0);
}

TEST(ArimaTest, TooLittleHistoryFails) {
  auto tiny = LoadSeries::Make(0, 5, std::vector<double>(10, 1.0));
  ArimaForecast model(FastOptions());
  EXPECT_FALSE(model.Fit(*tiny).ok());
}

TEST(ArimaTest, ForecastBeforeFitFails) {
  ArimaForecast model(FastOptions());
  LoadSeries any = Ar1Series(0.5, 10, 1, 100);
  EXPECT_TRUE(model.Forecast(any, any.end(), 60)
                  .status()
                  .IsFailedPrecondition());
}

TEST(ArimaTest, OutputsBounded) {
  LoadSeries train = Ar1Series(0.9, 20.0, 3.0, 1000);
  ArimaForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, train.end(), kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); ++i) {
    EXPECT_GE(forecast->ValueAt(i), 0.0);
    EXPECT_LE(forecast->ValueAt(i), 200.0);
  }
}

TEST(ArimaTest, SerializationRoundTrip) {
  LoadSeries train = Ar1Series(0.8, 30.0, 2.0, 800);
  ArimaForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto doc = model.Serialize();
  ASSERT_TRUE(doc.ok());
  ArimaForecast restored;
  ASSERT_TRUE(restored.Deserialize(*doc).ok());
  EXPECT_EQ(restored.order_p(), model.order_p());
  EXPECT_EQ(restored.order_d(), model.order_d());
  EXPECT_EQ(restored.order_q(), model.order_q());
  auto f1 = model.Forecast(train, train.end(), 60);
  auto f2 = restored.Forecast(train, train.end(), 60);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  for (int64_t i = 0; i < f1->size(); ++i) {
    EXPECT_NEAR(f1->ValueAt(i), f2->ValueAt(i), 1e-9);
  }
}

TEST(ArimaTest, DeserializeRejectsOrderMismatch) {
  LoadSeries train = Ar1Series(0.8, 30.0, 2.0, 800);
  ArimaForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  Json doc = std::move(model.Serialize()).ValueOrDie();
  doc["p"] = 5;  // now phi array length mismatches
  ArimaForecast restored;
  EXPECT_FALSE(restored.Deserialize(doc).ok());
}

TEST(ArimaTest, HostileDocumentsRestoreInvalid) {
  // An interval of 0 reached `start % 0` in Forecast (SIGFPE), and the
  // orders were cast from doubles to int unchecked.
  LoadSeries train = Ar1Series(0.8, 30.0, 2.0, 800);
  ArimaForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  const Json fitted = std::move(model.Serialize()).ValueOrDie();
  const std::pair<const char*, double> cases[] = {
      {"interval", 0},     {"interval", -5},
      {"p", -1},           {"p", 1e300},
      {"d", 1.5},          {"d", kMaxArimaOrder + 1},
      {"q", -1e300}};
  for (const auto& [key, value] : cases) {
    Json doc = fitted;
    doc[key] = value;
    auto restored = ModelFactory::Global().Restore(doc);
    EXPECT_TRUE(restored.status().IsInvalid())
        << key << " = " << value << ": " << restored.status().ToString();
  }
}

TEST(ArimaTest, OrderLongerThanTheContextFailsTheForecast) {
  // A valid document whose AR order outruns the two-day context used to
  // read before the start of the differenced series.
  LoadSeries train = Ar1Series(0.8, 30.0, 2.0, 800);
  ArimaForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  Json doc = std::move(model.Serialize()).ValueOrDie();
  doc["p"] = kMaxArimaOrder;
  Json phi = Json::MakeArray();
  for (int i = 0; i < kMaxArimaOrder; ++i) phi.Append(0.0);
  doc["phi"] = std::move(phi);
  auto restored = ModelFactory::Global().Restore(doc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->Forecast(train, train.end(), 60)
                  .status()
                  .IsFailedPrecondition());
}

TEST(ArimaTest, ToleratesMissingSamples) {
  LoadSeries train = Ar1Series(0.8, 30.0, 2.0, 800);
  for (int64_t i = 100; i < 130; ++i) train.SetValue(i, kMissingValue);
  ArimaForecast model(FastOptions());
  EXPECT_TRUE(model.Fit(train).ok());
}

}  // namespace
}  // namespace seagull
