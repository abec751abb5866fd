/// \file forecast_batch_equivalence_test.cc
/// \brief Property suite for the batched cross-server training engine:
/// batched fits must be byte-identical to per-server fits for every
/// model family, across input orders, shape groups, seeds, and pool
/// widths — and each model must agree within forecast tolerance with
/// the frozen outputs of the scalar reference paths it replaced
/// (tests/golden/forecast_scalar_reference.json) on well-behaved
/// fixtures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "forecast/arima.h"
#include "forecast/batch.h"
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

/// A mixed bag of shapes/seeds: two grids (7-day at day 0, 5-day at
/// day 2), clean and missing-sample variants, in interleaved order.
std::vector<LoadSeries> MakeFleet() {
  std::vector<LoadSeries> fleet;
  for (uint64_t s = 0; s < 4; ++s) {
    fleet.push_back(MakeSeries(100 + s, 7, 0, s % 2 == 1));
    fleet.push_back(MakeSeries(200 + s, 5, 2, s % 2 == 0));
  }
  return fleet;
}

/// The per-server reference: factory-create, fit, serialize.
std::vector<std::string> PerServerDocs(const std::string& name,
                                       const std::vector<LoadSeries>& fleet) {
  std::vector<std::string> docs;
  for (const LoadSeries& series : fleet) {
    auto model = std::move(ModelFactory::Global().Create(name)).ValueOrDie();
    Status fit = model->Fit(series);
    if (!fit.ok()) {
      docs.push_back("ERROR: " + fit.ToString());
      continue;
    }
    docs.push_back(std::move(model->Serialize()).ValueOrDie().Dump());
  }
  return docs;
}

std::vector<std::string> BatchDocs(const std::string& name,
                                   const std::vector<LoadSeries>& fleet,
                                   ThreadPool* pool) {
  std::vector<BatchTrainItem> items(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) items[i].train = &fleet[i];
  auto results =
      std::move(BatchTrainer::Fit(name, items, pool)).ValueOrDie();
  std::vector<std::string> docs;
  for (const BatchTrainResult& r : results) {
    if (!r.status.ok()) {
      docs.push_back("ERROR: " + r.status.ToString());
      continue;
    }
    docs.push_back(r.doc.Dump());
  }
  return docs;
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

TEST_P(BatchEquivalence, BatchedMatchesPerServerByteForByte) {
  const std::vector<LoadSeries> fleet = MakeFleet();
  const std::vector<std::string> expected = PerServerDocs(GetParam(), fleet);
  const std::vector<std::string> batched = BatchDocs(GetParam(), fleet,
                                                     /*pool=*/nullptr);
  ASSERT_EQ(expected.size(), batched.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], batched[i]) << GetParam() << " item " << i;
  }
}

TEST_P(BatchEquivalence, PoolWidthAndOrderDoNotChangeResults) {
  std::vector<LoadSeries> fleet = MakeFleet();
  // Deterministic shuffle so results must follow items, not grids.
  std::reverse(fleet.begin() + 2, fleet.end());
  const std::vector<std::string> expected = PerServerDocs(GetParam(), fleet);
  const std::vector<std::string> seq = BatchDocs(GetParam(), fleet, nullptr);
  ThreadPool pool(8);
  const std::vector<std::string> par = BatchDocs(GetParam(), fleet, &pool);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], expected[i]) << GetParam() << " item " << i;
    EXPECT_EQ(seq[i], par[i]) << GetParam() << " jobs-8 item " << i;
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
