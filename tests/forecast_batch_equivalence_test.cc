/// \file forecast_batch_equivalence_test.cc
/// \brief Property suite for fits that share per-thread state across
/// servers: every family's fit of a two-grid fleet, made one after the
/// other on one thread (forward, reversed, and across an 8-thread
/// pool), must serialize and forecast byte-identically to the same fit
/// made alone on a fresh thread. The additive model keeps the design
/// matrix and Gram of the last grid it fit per thread, so a repeated
/// grid skips the build; this is the suite that proves the key covers
/// everything the design depends on. Each model must also agree within
/// forecast tolerance with the frozen outputs of the scalar reference
/// paths it replaced (tests/golden/forecast_scalar_reference.json) on
/// well-behaved fixtures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "forecast/additive.h"
#include "forecast/arima.h"
#include "forecast/feedforward.h"
#include "forecast/model.h"
#include "parallel/thread_pool.h"

namespace seagull {
namespace {

constexpr double kTwoPi = 6.283185307179586;

/// Registers down-sized ARIMA/feed-forward families so the sweep stays
/// fast (the default ARIMA grid is the model this PR makes usable, but
/// a full grid per property case is still overkill for a unit test).
void RegisterQuickFamilies() {
  static const bool registered = [] {
    ModelFactory::Global().Register("arima_quick", [] {
      ArimaOptions opt;
      opt.max_p = 1;
      opt.max_d = 1;
      opt.max_q = 1;
      opt.iterations = 40;
      return std::make_unique<ArimaForecast>(opt);
    });
    ModelFactory::Global().Register("feedforward_quick", [] {
      FeedForwardOptions opt;
      opt.epochs = 30;
      return std::make_unique<FeedForwardForecast>(opt);
    });
    return true;
  }();
  (void)registered;
}

/// Server-load style series: daily shape, drift, noise; `days` and
/// `start_day` vary the shape-group key, and every third sample of one
/// day is dropped when `with_missing` so the InterpolateMissing path is
/// exercised.
LoadSeries MakeSeries(uint64_t seed, int64_t days, int64_t start_day,
                      bool with_missing) {
  Rng rng(seed);
  std::vector<double> values;
  const int64_t ticks = days * 288;
  double level = 25.0 + rng.Uniform() * 20.0;
  for (int64_t i = 0; i < ticks; ++i) {
    const double phase = static_cast<double>(i % 288) / 288.0;
    level = std::clamp(level + rng.Gaussian(0.0, 0.6), 5.0, 90.0);
    double v = level + 14.0 * std::sin(kTwoPi * phase) +
               4.0 * std::sin(kTwoPi * 2.0 * phase) + rng.Gaussian(0.0, 1.0);
    if (with_missing && i >= 288 && i < 2 * 288 && i % 3 == 0) {
      values.push_back(kMissingValue);
    } else {
      values.push_back(std::clamp(v, 0.0, 100.0));
    }
  }
  return std::move(LoadSeries::Make(start_day * kMinutesPerDay, 5,
                                    std::move(values)))
      .ValueOrDie();
}

/// A mixed bag of seeds on two grids of one length (7 days at day 0
/// and at day 2, so only the start tells them apart), clean and
/// missing-sample variants, in interleaved order.
std::vector<LoadSeries> MakeFleet() {
  std::vector<LoadSeries> fleet;
  for (uint64_t s = 0; s < 4; ++s) {
    fleet.push_back(MakeSeries(100 + s, 7, 0, s % 2 == 1));
    fleet.push_back(MakeSeries(200 + s, 7, 2, s % 2 == 0));
  }
  return fleet;
}

/// The bytes of a series: start, interval and every value's bits.
std::string SeriesBytes(const LoadSeries& series) {
  std::string out = std::to_string(series.start()) + "/" +
                    std::to_string(series.interval_minutes()) + ":";
  for (int64_t i = 0; i < series.size(); ++i) {
    const double v = series.ValueAt(i);
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return out;
}

/// One fit's outcome: the serialized document and the next-day
/// forecast of the fitted instance (or the error text).
struct Fitted {
  std::string doc;
  std::string forecast;

  bool operator==(const Fitted&) const = default;
};

Fitted FitOne(ForecastModel& model, const LoadSeries& series) {
  Status fit = model.Fit(series);
  if (!fit.ok()) return {"ERROR: " + fit.ToString(), ""};
  Fitted out{std::move(model.Serialize()).ValueOrDie().Dump(), ""};
  auto forecast = model.Forecast(series, series.end(), kMinutesPerDay);
  out.forecast = forecast.ok() ? SeriesBytes(*forecast)
                               : "ERROR: " + forecast.status().ToString();
  return out;
}

Fitted FitOne(const std::string& name, const LoadSeries& series) {
  auto model = std::move(ModelFactory::Global().Create(name)).ValueOrDie();
  return FitOne(*model, series);
}

/// The reference: `fn` on a thread of its own, whose per-thread state
/// (the additive design, the Monte-Carlo draws) starts empty.
Fitted OnFreshThread(const std::function<Fitted()>& fn) {
  Fitted out;
  std::thread([&] { out = fn(); }).join();
  return out;
}

std::vector<Fitted> FreshThreadFits(const std::string& name,
                                    const std::vector<LoadSeries>& fleet) {
  std::vector<Fitted> fits;
  for (const LoadSeries& series : fleet) {
    fits.push_back(OnFreshThread([&] { return FitOne(name, series); }));
  }
  return fits;
}

/// Outputs of the removed scalar reference paths, recorded once before
/// their removal and never regenerated.
const Json& ScalarReference() {
  static const Json doc = [] {
    const std::string path = std::string(SEAGULL_TEST_DATA_DIR) +
                             "/golden/forecast_scalar_reference.json";
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = Json::Parse(buffer.str());
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    return parsed.ok() ? *parsed : Json::MakeObject();
  }();
  return doc;
}

class BatchEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { RegisterQuickFamilies(); }
};

TEST_P(BatchEquivalence, OneThreadMatchesFreshThreadsByteForByte) {
  const std::vector<LoadSeries> fleet = MakeFleet();
  const std::vector<Fitted> expected = FreshThreadFits(GetParam(), fleet);
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(FitOne(GetParam(), fleet[i]), expected[i])
        << GetParam() << " item " << i;
  }
  for (size_t i = fleet.size(); i-- > 0;) {
    EXPECT_EQ(FitOne(GetParam(), fleet[i]), expected[i])
        << GetParam() << " reversed, item " << i;
  }
}

TEST_P(BatchEquivalence, PoolFitsMatchFreshThreadsByteForByte) {
  const std::vector<LoadSeries> fleet = MakeFleet();
  const std::vector<Fitted> expected = FreshThreadFits(GetParam(), fleet);
  std::vector<Fitted> par(fleet.size());
  ThreadPool pool(8);
  ParallelFor(&pool, static_cast<int64_t>(fleet.size()), [&](int64_t i) {
    par[static_cast<size_t>(i)] =
        FitOne(GetParam(), fleet[static_cast<size_t>(i)]);
  });
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(par[i], expected[i]) << GetParam() << " jobs-8 item " << i;
  }
}

TEST_P(BatchEquivalence, RestoredModelForecastsLikeTheFittedOne) {
  // The serving tick forecasts from the instance it fitted, with no
  // Serialize/Restore round trip in between.
  for (const LoadSeries& series : MakeFleet()) {
    const Fitted fitted = FitOne(GetParam(), series);
    auto restored = ModelFactory::Global().Restore(
        std::move(Json::Parse(fitted.doc)).ValueOrDie());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    auto forecast =
        (*restored)->Forecast(series, series.end(), kMinutesPerDay);
    ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
    EXPECT_EQ(SeriesBytes(*forecast), fitted.forecast) << GetParam();
  }
}

TEST_P(BatchEquivalence, AgreesWithScalarReferenceWithinForecastTolerance) {
  // Clean, strongly periodic fixture: the model must land on next-day
  // forecasts within a few load units RMS of the scalar reference's
  // (the kernels associate differently and, for ARIMA and feedforward,
  // drive the optimizer differently, so byte equality is out of scope —
  // DESIGN.md §"Forecast kernel engine").
  const LoadSeries series = MakeSeries(7, 7, 0, /*with_missing=*/false);
  auto model =
      std::move(ModelFactory::Global().Create(GetParam())).ValueOrDie();
  model->Fit(series).Abort();
  const LoadSeries forecast =
      std::move(model->Forecast(series, series.end(), kMinutesPerDay))
          .ValueOrDie();
  const Json& scalar = ScalarReference()["forecasts"][GetParam()];
  ASSERT_TRUE(scalar["values"].is_array()) << GetParam();
  const auto& want = scalar["values"].AsArray();
  ASSERT_EQ(forecast.start(), scalar["start"].AsInt());
  ASSERT_EQ(forecast.size(), static_cast<int64_t>(want.size()));
  double sq = 0.0;
  for (int64_t i = 0; i < forecast.size(); ++i) {
    const double d =
        forecast.ValueAt(i) - want[static_cast<size_t>(i)].AsDouble();
    sq += d * d;
  }
  const double rms = std::sqrt(sq / static_cast<double>(forecast.size()));
  // The feedforward trainer takes mini-batch Adam steps, which converge
  // well past what the full-batch scalar reference reached on the quick
  // family's 30-epoch budget — the gap there is bounded by the
  // reference's undertraining, not kernel rounding.
  const double tol =
      std::string(GetParam()) == "feedforward_quick" ? 10.0 : 4.0;
  EXPECT_LE(rms, tol) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Models, BatchEquivalence,
                         ::testing::Values("ssa", "additive",
                                           "feedforward_quick",
                                           "arima_quick"));

/// One grid, alternating the structure options the additive design
/// depends on besides the grid: each fit must match the same fit on a
/// fresh thread, so a thread's kept design never serves a different
/// holiday set or Fourier order.
TEST(BatchEquivalenceAdditive, AlternatingStructureOnOneGridMatches) {
  const LoadSeries series = MakeSeries(31, 7, 0, /*with_missing=*/false);
  auto options = [](int64_t daily, int64_t weekly,
                    std::vector<int64_t> holidays) {
    AdditiveOptions o;
    o.daily_order = daily;
    o.weekly_order = weekly;
    o.holidays = std::move(holidays);
    return o;
  };
  // Equal feature counts except the last two, so a design kept under
  // the wrong key would be read, not rejected by size.
  const std::vector<AdditiveOptions> variants = {
      options(8, 4, {2}), options(8, 4, {3}), options(8, 4, {2}),
      options(6, 6, {2}), options(8, 4, {2}), options(4, 8, {3}),
      options(8, 4, {3}), options(8, 4, {}),  options(6, 4, {2}),
  };
  for (size_t v = 0; v < variants.size(); ++v) {
    const Fitted expected = OnFreshThread([&] {
      AdditiveForecast model(variants[v]);
      return FitOne(model, series);
    });
    AdditiveForecast model(variants[v]);
    EXPECT_EQ(FitOne(model, series), expected) << "variant " << v;
  }
}

/// The ARIMA optimizer must still pick a sensible structure: on a
/// synthetic ARMA(1,0) process it should select the same d and p as the
/// scalar reference did (structure exactness on a well-behaved fixture).
TEST(BatchEquivalenceStructure, ArimaOrderMatchesScalarReference) {
  RegisterQuickFamilies();
  Rng rng(42);
  std::vector<double> values;
  double z = 0.0;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    z = 0.6 * z + rng.Gaussian(0.0, 2.0);
    values.push_back(std::clamp(30.0 + z, 0.0, 100.0));
  }
  const LoadSeries series =
      std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
  auto model =
      std::move(ModelFactory::Global().Create("arima_quick")).ValueOrDie();
  model->Fit(series).Abort();
  const Json doc = std::move(model->Serialize()).ValueOrDie();
  const Json& scalar = ScalarReference()["arima_order"];
  EXPECT_EQ(std::move(doc.GetNumber("d")).ValueOrDie(),
            std::move(scalar.GetNumber("d")).ValueOrDie());
  EXPECT_EQ(std::move(doc.GetNumber("p")).ValueOrDie(),
            std::move(scalar.GetNumber("p")).ValueOrDie());
}

}  // namespace
}  // namespace seagull
