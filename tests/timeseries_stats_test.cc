#include "timeseries/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace seagull {
namespace {

LoadSeries MakeSeries(std::vector<double> values) {
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(StatsTest, SummarizeBasics) {
  SeriesSummary s = Summarize(MakeSeries({2, 4, 6, kMissingValue}));
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.missing, 1);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_NEAR(s.stddev, std::sqrt(8.0 / 3.0), 1e-9);
}

TEST(StatsTest, SummarizeEmpty) {
  SeriesSummary s = Summarize(*LoadSeries::MakeEmpty(0, 5, 3));
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.missing, 3);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({7}, 0.3), 7.0);
  EXPECT_TRUE(IsMissing(Quantile({}, 0.5)));
}

TEST(StatsTest, QuantileClampsAndSkipsMissing) {
  EXPECT_DOUBLE_EQ(Quantile({1, kMissingValue, 3}, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(Quantile({1, kMissingValue, 3}, -1.0), 1.0);
}

}  // namespace
}  // namespace seagull
