/// \file property_test.cc
/// \brief Parameterized property suites over randomized inputs: invariants
/// that must hold for any series, not just hand-picked examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "forecast/linalg.h"
#include "forecast/persistent.h"
#include "metrics/bucket_ratio.h"
#include "metrics/ll_window.h"
#include "metrics/standard.h"
#include "timeseries/resample.h"
#include "timeseries/window.h"

namespace seagull {
namespace {

LoadSeries RandomSeries(uint64_t seed, int64_t n, double missing_rate = 0.0) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  double level = rng.Uniform(5.0, 60.0);
  for (int64_t i = 0; i < n; ++i) {
    level += rng.Gaussian(0.0, 1.0);
    level = std::clamp(level, 0.0, 100.0);
    if (rng.Chance(missing_rate)) {
      values.push_back(kMissingValue);
    } else {
      values.push_back(level);
    }
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Window search vs brute force.

class WindowProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowProperty, MatchesBruteForce) {
  LoadSeries s = RandomSeries(GetParam(), 288, 0.1);
  const int64_t duration = 60;  // 12 ticks
  WindowResult fast = FindMinAverageWindow(s, duration, 0.25);
  // Brute force.
  bool found = false;
  MinuteStamp best_start = 0;
  double best_avg = 0.0;
  const int64_t w = duration / 5;
  for (int64_t i = 0; i + w <= s.size(); ++i) {
    double sum = 0;
    int64_t cnt = 0;
    for (int64_t k = 0; k < w; ++k) {
      double v = s.ValueAt(i + k);
      if (IsMissing(v)) continue;
      sum += v;
      ++cnt;
    }
    int64_t min_present =
        w - static_cast<int64_t>(0.25 * static_cast<double>(w));
    if (cnt < min_present || cnt == 0) continue;
    double avg = sum / static_cast<double>(cnt);
    if (!found || avg < best_avg) {
      found = true;
      best_avg = avg;
      best_start = s.TimeAt(i);
    }
  }
  ASSERT_EQ(fast.found, found);
  if (found) {
    EXPECT_EQ(fast.start, best_start);
    EXPECT_NEAR(fast.average_load, best_avg, 1e-9);
  }
}

TEST_P(WindowProperty, FoundWindowIsOptimal) {
  LoadSeries s = RandomSeries(GetParam() ^ 0xABCD, 288);
  WindowResult w = FindMinAverageWindow(s, 90);
  ASSERT_TRUE(w.found);
  for (int64_t start = 0; start + 90 <= s.end(); start += 5) {
    double avg = WindowAverage(s, start, 90);
    if (IsMissing(avg)) continue;
    EXPECT_GE(avg + 1e-9, w.average_load);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowProperty,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Bucket ratio invariants.

class BucketProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BucketProperty, SelfComparisonIsPerfect) {
  LoadSeries s = RandomSeries(GetParam(), 500, 0.05);
  BucketRatioResult r = BucketRatio(s, s);
  EXPECT_EQ(r.compared, s.CountPresent());
  EXPECT_DOUBLE_EQ(r.ratio, 1.0);
}

TEST_P(BucketProperty, WideningBoundsNeverLowersRatio) {
  LoadSeries truth = RandomSeries(GetParam(), 400);
  LoadSeries pred = RandomSeries(GetParam() + 1000, 400);
  AccuracyConfig narrow;
  AccuracyConfig wide;
  wide.over_bound = narrow.over_bound * 2;
  wide.under_bound = narrow.under_bound * 2;
  EXPECT_LE(BucketRatio(pred, truth, narrow).ratio,
            BucketRatio(pred, truth, wide).ratio + 1e-12);
}

TEST_P(BucketProperty, RatioIsInUnitInterval) {
  LoadSeries truth = RandomSeries(GetParam(), 300, 0.2);
  LoadSeries pred = RandomSeries(GetParam() + 7, 300, 0.2);
  BucketRatioResult r = BucketRatio(pred, truth);
  EXPECT_GE(r.ratio, 0.0);
  EXPECT_LE(r.ratio, 1.0);
  EXPECT_LE(r.in_bound, r.compared);
}

TEST_P(BucketProperty, AsymmetryFavorsOverPrediction) {
  // Shifting the prediction up by +8 stays in bound; down by -8 does not.
  LoadSeries truth = RandomSeries(GetParam(), 300);
  std::vector<double> up_v, down_v;
  for (int64_t i = 0; i < truth.size(); ++i) {
    up_v.push_back(truth.ValueAt(i) + 8.0);
    down_v.push_back(truth.ValueAt(i) - 8.0);
  }
  LoadSeries up =
      std::move(LoadSeries::Make(0, 5, std::move(up_v))).ValueOrDie();
  LoadSeries down =
      std::move(LoadSeries::Make(0, 5, std::move(down_v))).ValueOrDie();
  EXPECT_DOUBLE_EQ(BucketRatio(up, truth).ratio, 1.0);
  EXPECT_DOUBLE_EQ(BucketRatio(down, truth).ratio, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BucketProperty,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Persistent forecast replication property.

class PersistentProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistentProperty, PrevDayForecastEqualsShiftedHistory) {
  LoadSeries history = RandomSeries(GetParam(), 7 * 288, 0.05);
  PersistentForecast model(PersistentVariant::kPreviousDay);
  auto forecast =
      model.Forecast(history, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); ++i) {
    double expected = history.ValueAtTime(forecast->TimeAt(i) -
                                          kMinutesPerDay);
    double actual = forecast->ValueAt(i);
    if (IsMissing(expected)) {
      EXPECT_TRUE(IsMissing(actual));
    } else {
      EXPECT_DOUBLE_EQ(actual, expected);
    }
  }
}

TEST_P(PersistentProperty, WeekAverageForecastIsConstant) {
  LoadSeries history = RandomSeries(GetParam(), 7 * 288);
  PersistentForecast model(PersistentVariant::kPreviousWeekAverage);
  auto forecast =
      model.Forecast(history, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  double first = forecast->ValueAt(0);
  for (int64_t i = 1; i < forecast->size(); ++i) {
    EXPECT_DOUBLE_EQ(forecast->ValueAt(i), first);
  }
  EXPECT_NEAR(first, history.Mean(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistentProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Resampling invariants.

class ResampleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResampleProperty, DownsamplePreservesMeanOnCompleteDays) {
  LoadSeries s = RandomSeries(GetParam(), 288);
  auto d = Downsample(s, 15);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->Mean(), s.Mean(), 1e-9);
  auto h = Downsample(s, 60);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(h->Mean(), s.Mean(), 1e-9);
}

TEST_P(ResampleProperty, InterpolationFixedPoint) {
  LoadSeries s = RandomSeries(GetParam(), 288, 0.3);
  LoadSeries once = InterpolateMissing(s);
  EXPECT_EQ(once.CountMissing(), 0);
  LoadSeries twice = InterpolateMissing(once);
  EXPECT_EQ(once.values(), twice.values());
  // Present samples are untouched.
  for (int64_t i = 0; i < s.size(); ++i) {
    if (!s.MissingAt(i)) {
      EXPECT_DOUBLE_EQ(once.ValueAt(i), s.ValueAt(i));
    }
  }
}

TEST_P(ResampleProperty, InterpolationStaysWithinEnvelope) {
  LoadSeries s = RandomSeries(GetParam(), 288, 0.3);
  if (s.CountPresent() == 0) return;
  LoadSeries filled = InterpolateMissing(s);
  double lo = s.Min(), hi = s.Max();
  for (int64_t i = 0; i < filled.size(); ++i) {
    EXPECT_GE(filled.ValueAt(i), lo - 1e-9);
    EXPECT_LE(filled.ValueAt(i), hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResampleProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Gram eigendecomposition reconstruction across random shapes (SSA's
// lag-covariance solve: A = V diag(λ) Vᵀ for A = XᵀX).

struct GramShape {
  int64_t rows;
  int64_t cols;
};

class GramEigenProperty : public ::testing::TestWithParam<GramShape> {};

TEST_P(GramEigenProperty, ReconstructsWithinTolerance) {
  GramShape shape = GetParam();
  Rng rng(shape.rows * 131 + shape.cols);
  Matrix x(shape.rows, shape.cols);
  for (int64_t i = 0; i < shape.rows; ++i) {
    for (int64_t j = 0; j < shape.cols; ++j) {
      x.At(i, j) = rng.Gaussian(0.0, 3.0);
    }
  }
  const Matrix gram = AtA(x);
  Matrix work = gram;
  Matrix vectors;
  std::vector<double> values;
  ASSERT_TRUE(SymmetricEigenInPlace(&work, &vectors, &values).ok());
  const int64_t n = shape.cols;
  double max_err = 0.0, scale = 1.0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double recon = 0.0;
      for (int64_t k = 0; k < n; ++k) {
        recon += vectors.At(i, k) * values[static_cast<size_t>(k)] *
                 vectors.At(j, k);
      }
      max_err = std::max(max_err, std::fabs(recon - gram.At(i, j)));
      scale = std::max(scale, std::fabs(gram.At(i, j)));
    }
  }
  EXPECT_LT(max_err, 1e-9 * scale);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GramEigenProperty,
                         ::testing::Values(GramShape{4, 4}, GramShape{8, 3},
                                           GramShape{16, 16},
                                           GramShape{40, 10},
                                           GramShape{64, 24}));

// ---------------------------------------------------------------------------
// Standard metric invariants.

class MetricProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricProperty, ErrorsAreNonNegativeAndZeroOnSelf) {
  LoadSeries truth = RandomSeries(GetParam(), 400, 0.1);
  LoadSeries pred = RandomSeries(GetParam() + 99, 400, 0.1);
  double mae = MeanAbsoluteError(pred, truth);
  double rmse = RootMeanSquaredError(pred, truth);
  if (!IsMissing(mae)) {
    EXPECT_GE(mae, 0.0);
    EXPECT_GE(rmse, mae - 1e-9);  // RMSE >= MAE always
  }
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(truth, truth), 0.0);
}

TEST_P(MetricProperty, LowestLoadWindowIsBelowDayMean) {
  LoadSeries day = RandomSeries(GetParam() + 31, 288);
  WindowResult w = LowestLoadWindow(day, 0, 120);
  ASSERT_TRUE(w.found);
  EXPECT_LE(w.average_load, day.Mean() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace seagull
