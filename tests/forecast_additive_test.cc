#include "forecast/additive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "metrics/standard.h"

namespace seagull {
namespace {

constexpr double kTwoPi = 6.283185307179586;

AdditiveOptions FastOptions() {
  AdditiveOptions o;
  o.iterations = 300;
  o.uncertainty_samples = 20;
  return o;
}

LoadSeries SeasonalSeries(int64_t days, double trend_per_day = 0.0) {
  std::vector<double> values;
  for (int64_t i = 0; i < days * 288; ++i) {
    double day_phase = static_cast<double>(i % 288) / 288.0;
    double week_phase = static_cast<double>(i % 2016) / 2016.0;
    double v = 30.0 + 10.0 * std::sin(kTwoPi * day_phase) +
               5.0 * std::cos(kTwoPi * week_phase) +
               trend_per_day * static_cast<double>(i) / 288.0;
    values.push_back(std::max(0.0, v));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(AdditiveTest, FitsDailySeasonality) {
  LoadSeries train = SeasonalSeries(7);
  AdditiveForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  LoadSeries truth =
      SeasonalSeries(8).Slice(7 * kMinutesPerDay, 8 * kMinutesPerDay);
  double mae = MeanAbsoluteError(*forecast, truth);
  EXPECT_LT(mae, 4.0);
}

TEST(AdditiveTest, CapturesLinearTrend) {
  LoadSeries train = SeasonalSeries(7, 1.0);  // +1 point per day
  AdditiveForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  // Mean of the forecast day should be near the trend-extrapolated level.
  LoadSeries truth =
      SeasonalSeries(8, 1.0).Slice(7 * kMinutesPerDay, 8 * kMinutesPerDay);
  EXPECT_NEAR(forecast->Mean(), truth.Mean(), 5.0);
}

TEST(AdditiveTest, ForecastBeforeFitFails) {
  AdditiveForecast model(FastOptions());
  LoadSeries any = SeasonalSeries(1);
  EXPECT_TRUE(
      model.Forecast(any, 0, kMinutesPerDay).status().IsFailedPrecondition());
}

TEST(AdditiveTest, TooLittleHistoryFails) {
  auto tiny = LoadSeries::Make(0, 5, {1, 2, 3});
  AdditiveForecast model(FastOptions());
  EXPECT_FALSE(model.Fit(*tiny).ok());
}

TEST(AdditiveTest, OutputsBoundedNonNegative) {
  LoadSeries train = SeasonalSeries(7);
  AdditiveForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto forecast = model.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); ++i) {
    EXPECT_GE(forecast->ValueAt(i), 0.0);
    EXPECT_LE(forecast->ValueAt(i), 200.0);
  }
}

TEST(AdditiveTest, ToleratesMissingSamples) {
  LoadSeries train = SeasonalSeries(7);
  for (int64_t i = 1000; i < 1100; ++i) train.SetValue(i, kMissingValue);
  AdditiveForecast model(FastOptions());
  EXPECT_TRUE(model.Fit(train).ok());
}

TEST(AdditiveTest, SerializationRoundTrip) {
  LoadSeries train = SeasonalSeries(7);
  AdditiveForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  auto doc = model.Serialize();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->GetString("model"), "additive");

  AdditiveForecast restored;
  ASSERT_TRUE(restored.Deserialize(*doc).ok());
  auto f1 = model.Forecast(train, 7 * kMinutesPerDay, 60);
  auto f2 = restored.Forecast(train, 7 * kMinutesPerDay, 60);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  // Monte-Carlo uncertainty is seeded identically, so forecasts agree.
  for (int64_t i = 0; i < f1->size(); ++i) {
    EXPECT_NEAR(f1->ValueAt(i), f2->ValueAt(i), 1e-9);
  }
}

TEST(AdditiveTest, DeserializeRejectsCoefficientMismatch) {
  LoadSeries train = SeasonalSeries(7);
  AdditiveForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  Json doc = std::move(model.Serialize()).ValueOrDie();
  doc["coef"].AsArray().pop_back();
  AdditiveForecast restored;
  EXPECT_FALSE(restored.Deserialize(doc).ok());
}

TEST(AdditiveTest, HolidayEffectLearnedAndApplied) {
  // Days 2 and 5 carry a +20 batch-job offset; day 7 (the forecast day)
  // is also a configured holiday. Weekly seasonality is disabled in both
  // models: with one week of training, day-of-week Fourier terms could
  // explain the elevated days equally well and the (collinear) holiday
  // coefficient would not be identifiable.
  AdditiveOptions options = FastOptions();
  options.weekly_order = 0;
  options.changepoints = 0;
  options.iterations = 1500;
  options.holidays = {2, 5, 7};
  std::vector<double> values;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    int64_t day = i / 288;
    double v = 20.0 + ((day == 2 || day == 5) ? 20.0 : 0.0);
    values.push_back(v);
  }
  LoadSeries train =
      std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
  AdditiveForecast with(options);
  ASSERT_TRUE(with.Fit(train).ok());
  AdditiveOptions plain = options;
  plain.holidays.clear();
  AdditiveForecast without(plain);
  ASSERT_TRUE(without.Fit(train).ok());
  auto f_with = with.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  auto f_without =
      without.Forecast(train, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(f_with.ok());
  ASSERT_TRUE(f_without.ok());
  // The holiday-aware model predicts the elevated level on day 7; the
  // plain model predicts near the weekday baseline.
  EXPECT_GT(f_with->Mean(), f_without->Mean() + 10.0);
  EXPECT_NEAR(f_with->Mean(), 40.0, 6.0);
}

TEST(AdditiveTest, HolidaysSurviveSerialization) {
  AdditiveOptions options = FastOptions();
  options.holidays = {3, 9};
  LoadSeries train = SeasonalSeries(7);
  AdditiveForecast model(options);
  ASSERT_TRUE(model.Fit(train).ok());
  Json doc = std::move(model.Serialize()).ValueOrDie();
  AdditiveForecast restored;
  ASSERT_TRUE(restored.Deserialize(doc).ok());
  auto f1 = model.Forecast(train, 9 * kMinutesPerDay, 60);
  auto f2 = restored.Forecast(train, 9 * kMinutesPerDay, 60);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  for (int64_t i = 0; i < f1->size(); ++i) {
    EXPECT_NEAR(f1->ValueAt(i), f2->ValueAt(i), 1e-9);
  }
}

TEST(AdditiveTest, UncertaintySamplesOnlyAffectBeyondTraining) {
  // Inside the trained range the drift term is zero, so the forecast is
  // the deterministic curve regardless of the sample count.
  LoadSeries train = SeasonalSeries(7);
  AdditiveOptions few = FastOptions();
  few.uncertainty_samples = 1;
  AdditiveOptions many = FastOptions();
  many.uncertainty_samples = 50;
  AdditiveForecast a(few), b(many);
  ASSERT_TRUE(a.Fit(train).ok());
  ASSERT_TRUE(b.Fit(train).ok());
  auto fa = a.Forecast(train, 3 * kMinutesPerDay, 60);
  auto fb = b.Forecast(train, 3 * kMinutesPerDay, 60);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  for (int64_t i = 0; i < fa->size(); ++i) {
    EXPECT_NEAR(fa->ValueAt(i), fb->ValueAt(i), 1e-9);
  }
}

// --- Hostile model documents -------------------------------------------

/// A fitted model's document with `key` set to `value`, and its `coef`
/// array resized to the count the edited structure implies, so that
/// only the range checks can reject it.
Json DocWith(const std::string& key, double value) {
  AdditiveForecast model(FastOptions());
  model.Fit(SeasonalSeries(7)).Abort();
  Json doc = std::move(model.Serialize()).ValueOrDie();
  doc[key] = value;
  const int64_t features =
      2 + doc["changepoints"].AsInt() +
      2 * (doc["daily_order"].AsInt() + doc["weekly_order"].AsInt());
  Json coef = Json::MakeArray();
  for (int64_t i = 0; i < std::max<int64_t>(0, features); ++i) {
    coef.Append(0.5);
  }
  doc["coef"] = std::move(coef);
  return doc;
}

TEST(AdditiveTest, DeserializeRejectsNegativeOrder) {
  // Its feature count is 2 + 0 + 2·(−1 + 0) = 0, so the empty coef
  // array matches; restored, its Forecast would write its first
  // feature through the empty feature vector's null pointer.
  Json doc = Json::MakeObject();
  doc["model"] = "additive";
  doc["interval"] = 5;
  doc["train_start"] = 0;
  doc["train_end"] = 7 * kMinutesPerDay;
  doc["daily_order"] = -1;
  doc["weekly_order"] = 0;
  doc["changepoints"] = 0;
  doc["uncertainty_samples"] = 20;
  doc["seed"] = 11;
  doc["residual_sigma"] = 1.0;
  doc["holidays"] = Json::MakeArray();
  doc["coef"] = Json::MakeArray();
  AdditiveForecast restored;
  EXPECT_TRUE(restored.Deserialize(doc).IsInvalid());
}

TEST(AdditiveTest, DeserializeRejectsOutOfRangeFields) {
  struct Case {
    const char* key;
    double value;
  };
  const Case cases[] = {
      {"interval", 0},  // would reach `start % 0` in Forecast
      {"interval", -5},
      {"interval", 2.5},
      {"daily_order", -1},
      {"weekly_order", -1},
      {"changepoints", -1},
      {"daily_order", kMaxAdditiveTerms + 1},
      {"weekly_order", kMaxAdditiveTerms + 1},
      {"changepoints", kMaxAdditiveTerms + 1},
      {"uncertainty_samples", 0},
      {"uncertainty_samples", -3},
      {"uncertainty_samples", kMaxUncertaintySamples + 1},
  };
  for (const Case& c : cases) {
    AdditiveForecast restored;
    Status status = restored.Deserialize(DocWith(c.key, c.value));
    EXPECT_TRUE(status.IsInvalid()) << c.key << " = " << c.value << ": "
                                    << status.ToString();
  }
}

TEST(AdditiveTest, DeserializeAcceptsRangeEdges) {
  const std::pair<const char*, double> edges[] = {
      {"daily_order", 0},
      {"weekly_order", 0},
      {"changepoints", 0},
      {"changepoints", kMaxAdditiveTerms},
      {"uncertainty_samples", 1},
      {"uncertainty_samples", kMaxUncertaintySamples},
      {"interval", 1}};
  for (const auto& [key, value] : edges) {
    AdditiveForecast restored;
    Status status = restored.Deserialize(DocWith(key, value));
    EXPECT_TRUE(status.ok()) << key << " = " << value << ": "
                             << status.ToString();
  }
}

TEST(AdditiveTest, HostileHolidaysRestoreInvalid) {
  // Each holidays entry used to be cast to int64_t unchecked (1e300 is
  // out of range). One holiday adds one feature, so each document also
  // carries one more coefficient: only the entry's own check rejects it.
  AdditiveForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(SeasonalSeries(7)).ok());
  const Json fitted = std::move(model.Serialize()).ValueOrDie();
  auto with_holiday = [&](Json day) {
    Json doc = fitted;
    Json holidays = Json::MakeArray();
    holidays.Append(std::move(day));
    doc["holidays"] = std::move(holidays);
    doc["coef"].Append(0.5);
    return doc;
  };
  for (Json day : {Json(1e300), Json(-1e300), Json(2.5), Json("7")}) {
    auto restored = ModelFactory::Global().Restore(with_holiday(day));
    EXPECT_TRUE(restored.status().IsInvalid())
        << day.Dump() << ": " << restored.status().ToString();
  }
  EXPECT_TRUE(ModelFactory::Global().Restore(with_holiday(Json(7))).ok());
}

TEST(AdditiveTest, RejectedDocumentLeavesModelUnfitted) {
  AdditiveForecast model(FastOptions());
  ASSERT_TRUE(model.Fit(SeasonalSeries(7)).ok());
  EXPECT_FALSE(model.Deserialize(DocWith("interval", 0)).ok());
  EXPECT_TRUE(model.Forecast(SeasonalSeries(1), 0, 60)
                  .status()
                  .IsFailedPrecondition());
}

// --- Bit pins for the shared Monte-Carlo draws -------------------------
//
// A forecast draws its normals from the stream seeded `seed ^ start`,
// and each thread keeps the last stream it drew. The calls below run in
// one order on one thread, so they hit, extend, restart and outgrow
// that table; every result must equal, byte for byte, the same call on
// a fresh thread (whose table starts empty) and the digest frozen in
// tests/golden/additive_draws_v1.json, which was computed by the
// implementation that drew every normal afresh.

constexpr MinuteStamp kStartA = 7 * kMinutesPerDay;  // the training end
constexpr MinuteStamp kStartB = 8 * kMinutesPerDay;

const Json& DrawsGolden() {
  static const Json doc = [] {
    const std::string path =
        std::string(SEAGULL_TEST_DATA_DIR) + "/golden/additive_draws_v1.json";
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = Json::Parse(buffer.str());
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    return parsed.ok() ? *parsed : Json::MakeObject();
  }();
  return doc;
}

/// FNV-1a-64 over the forecast's raw doubles.
std::string ValuesDigest(const std::vector<double>& values) {
  const uint64_t h = Fnv1aFold(
      kFnv1aBasis,
      std::string_view(reinterpret_cast<const char*>(values.data()),
                       values.size() * sizeof(double)));
  return StringPrintf("%016llx", static_cast<unsigned long long>(h));
}

std::unique_ptr<AdditiveForecast> PinModel(int64_t samples, uint64_t seed) {
  AdditiveOptions options = FastOptions();
  options.uncertainty_samples = samples;
  options.seed = seed;
  auto model = std::make_unique<AdditiveForecast>(options);
  model->Fit(SeasonalSeries(7, 0.5)).Abort();
  return model;
}

std::vector<double> ForecastValues(const AdditiveForecast& model,
                                   MinuteStamp start, int64_t horizon) {
  auto forecast = model.Forecast(LoadSeries(), start, horizon);
  forecast.status().Abort();
  return forecast->values();
}

TEST(AdditiveTest, SharedDrawsKeepEveryBit) {
  const std::unique_ptr<AdditiveForecast> models[] = {
      PinModel(20, 11), PinModel(100, 11), PinModel(1, 11),
      // Its stream at kStartB is model 1's stream at kStartA.
      PinModel(100, 11 ^ static_cast<uint64_t>(kStartA) ^
                        static_cast<uint64_t>(kStartB)),
      // 15 days × 1000 samples outgrow the 14-day table.
      PinModel(1000, 11)};
  struct Call {
    const char* name;
    int model;
    MinuteStamp start;
    int64_t horizon;
  };
  const Call calls[] = {
      {"s20_a_day", 0, kStartA, kMinutesPerDay},
      {"s20_b_day", 0, kStartB, kMinutesPerDay},
      {"s20_a_day_again", 0, kStartA, kMinutesPerDay},
      {"s100_a_day", 1, kStartA, kMinutesPerDay},
      {"s100_a_week", 1, kStartA, 7 * kMinutesPerDay},
      {"s1_a_day", 2, kStartA, kMinutesPerDay},
      {"s100_coincident_b_day", 3, kStartB, kMinutesPerDay},
      {"s1000_a_15_days", 4, kStartA, 15 * kMinutesPerDay},
      {"s1000_a_day", 4, kStartA, kMinutesPerDay},
      {"s20_b_day_again", 0, kStartB, kMinutesPerDay},
  };
  const Json& golden = DrawsGolden()["forecasts"];
  for (const Call& call : calls) {
    const AdditiveForecast& model = *models[call.model];
    const std::vector<double> shared =
        ForecastValues(model, call.start, call.horizon);
    std::vector<double> fresh;
    std::thread([&] {
      fresh = ForecastValues(model, call.start, call.horizon);
    }).join();
    ASSERT_EQ(shared.size(), fresh.size()) << call.name;
    EXPECT_EQ(std::memcmp(shared.data(), fresh.data(),
                          shared.size() * sizeof(double)),
              0)
        << call.name;
    EXPECT_EQ(ValuesDigest(shared), golden[call.name].AsString())
        << call.name;
  }
}

}  // namespace
}  // namespace seagull
