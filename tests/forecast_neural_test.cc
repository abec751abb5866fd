#include "forecast/feedforward.h"

#include <gtest/gtest.h>

#include <cmath>

#include "metrics/standard.h"

namespace seagull {
namespace {

constexpr double kTwoPi = 6.283185307179586;

LoadSeries DailyBumps(int64_t days) {
  std::vector<double> values;
  for (int64_t i = 0; i < days * 288; ++i) {
    double phase = static_cast<double>(i % 288) / 288.0;
    double v = 20.0 + 15.0 * std::sin(kTwoPi * phase) +
               8.0 * std::sin(2 * kTwoPi * phase);
    values.push_back(std::max(0.0, v));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

FeedForwardOptions FastOptions() {
  FeedForwardOptions o;
  o.epochs = 120;
  o.hidden = 24;
  return o;
}

TEST(FeedForwardTest, LearnsRepeatingDailyShape) {
  LoadSeries train = DailyBumps(7);
  FeedForwardForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  LoadSeries truth =
      DailyBumps(8).Slice(7 * kMinutesPerDay, 8 * kMinutesPerDay);
  // Pooled prediction is a step function; compare on hourly averages.
  double mae = MeanAbsoluteError(*forecast, truth);
  EXPECT_LT(mae, 5.0);
}

TEST(FeedForwardTest, TrainingLossDecreasesToSmall) {
  LoadSeries train = DailyBumps(7);
  FeedForwardForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_LT(model.train_loss(), 0.01);  // normalized units
}

TEST(FeedForwardTest, NeedsTwoDays) {
  LoadSeries short_series = DailyBumps(1);
  FeedForwardForecast model(FastOptions());
  EXPECT_TRUE(model.Fit(short_series).IsFailedPrecondition());
}

TEST(FeedForwardTest, ForecastBeforeFitFails) {
  FeedForwardForecast model(FastOptions());
  LoadSeries any = DailyBumps(2);
  EXPECT_TRUE(model.Forecast(any, 0, kMinutesPerDay)
                  .status()
                  .IsFailedPrecondition());
}

TEST(FeedForwardTest, MultiDayHorizon) {
  LoadSeries train = DailyBumps(7);
  FeedForwardForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast =
      model.Forecast(train, 7 * kMinutesPerDay, 2 * kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->size(), 2 * 288);
  EXPECT_EQ(forecast->CountMissing(), 0);
}

TEST(FeedForwardTest, OutputsBounded) {
  LoadSeries train = DailyBumps(7);
  FeedForwardForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); ++i) {
    EXPECT_GE(forecast->ValueAt(i), 0.0);
    EXPECT_LE(forecast->ValueAt(i), 200.0);
  }
}

TEST(FeedForwardTest, DeterministicGivenSeed) {
  LoadSeries train = DailyBumps(4);
  FeedForwardForecast a(FastOptions()), b(FastOptions());
  ASSERT_TRUE(a.Fit(train).ok());
  ASSERT_TRUE(b.Fit(train).ok());
  auto fa = a.Forecast(train, 4 * kMinutesPerDay, 60);
  auto fb = b.Forecast(train, 4 * kMinutesPerDay, 60);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  for (int64_t i = 0; i < fa->size(); ++i) {
    EXPECT_DOUBLE_EQ(fa->ValueAt(i), fb->ValueAt(i));
  }
}

TEST(FeedForwardTest, SerializationRoundTrip) {
  LoadSeries train = DailyBumps(4);
  FeedForwardForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto doc = model.Serialize();
  ASSERT_TRUE(doc.ok());
  FeedForwardForecast restored;
  ASSERT_TRUE(restored.Deserialize(*doc).ok());
  auto f1 = model.Forecast(train, 4 * kMinutesPerDay, 120);
  auto f2 = restored.Forecast(train, 4 * kMinutesPerDay, 120);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  for (int64_t i = 0; i < f1->size(); ++i) {
    EXPECT_NEAR(f1->ValueAt(i), f2->ValueAt(i), 1e-9);
  }
}

TEST(FeedForwardTest, HostileDocumentsRestoreInvalid) {
  // An interval of 0 reached `start % 0` in Forecast (SIGFPE), and a
  // hidden width of 4096 over empty weights read past them (SIGSEGV).
  LoadSeries train = DailyBumps(4);
  FeedForwardForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  const Json fitted = std::move(model.Serialize()).ValueOrDie();
  std::vector<Json> docs;
  for (const auto& [key, value] :
       {std::pair<const char*, double>{"interval", 0},
        {"interval", kMinutesPerDay + 5},
        {"pooled", 0},
        {"pooled", 7},    // does not divide the 288 samples of a day
        {"pooled", 576},  // more bins than samples
        {"hidden", 0},
        {"hidden", 1e300},
        {"hidden", kMaxFeedForwardHidden + 1}}) {
    docs.push_back(fitted);
    docs.back()[key] = value;
  }
  docs.push_back(fitted);
  docs.back()["hidden"] = 4096;
  for (const char* key : {"w1", "b1", "w2", "b2"}) {
    docs.back()[key] = Json::MakeArray();
  }
  docs.push_back(fitted);
  docs.back()["b2"].AsArray().pop_back();  // one weight short
  for (const Json& doc : docs) {
    auto restored = ModelFactory::Global().Restore(doc);
    EXPECT_TRUE(restored.status().IsInvalid())
        << doc.Dump().substr(0, 120) << ": " << restored.status().ToString();
  }
}

TEST(FeedForwardTest, ToleratesMissingTrainingSamples) {
  LoadSeries train = DailyBumps(7);
  for (int64_t i = 500; i < 560; ++i) train.SetValue(i, kMissingValue);
  FeedForwardForecast model(FastOptions());
  EXPECT_TRUE(model.Fit(train).ok());
}

TEST(FeedForwardTest, WorksOn15MinuteGrid) {
  // SQL-database granularity (Appendix A).
  std::vector<double> values;
  for (int64_t i = 0; i < 7 * 96; ++i) {
    double phase = static_cast<double>(i % 96) / 96.0;
    values.push_back(20.0 + 10.0 * std::sin(kTwoPi * phase));
  }
  LoadSeries train =
      std::move(LoadSeries::Make(0, 15, std::move(values))).ValueOrDie();
  FeedForwardForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->size(), 96);
}

}  // namespace
}  // namespace seagull
