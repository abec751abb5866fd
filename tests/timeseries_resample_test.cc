#include "timeseries/resample.h"

#include <gtest/gtest.h>

namespace seagull {
namespace {

LoadSeries MakeSeries(std::vector<double> values, int64_t interval = 5) {
  return std::move(LoadSeries::Make(0, interval, std::move(values)))
      .ValueOrDie();
}

TEST(ResampleTest, DownsampleAverages) {
  // 5-min to 15-min: buckets of 3.
  LoadSeries s = MakeSeries({1, 2, 3, 10, 11, 12});
  auto d = Downsample(s, 15);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->interval_minutes(), 15);
  EXPECT_EQ(d->size(), 2);
  EXPECT_DOUBLE_EQ(d->ValueAt(0), 2.0);
  EXPECT_DOUBLE_EQ(d->ValueAt(1), 11.0);
}

TEST(ResampleTest, DownsampleSkipsMissingWithinBucket) {
  LoadSeries s = MakeSeries({1, kMissingValue, 3});
  auto d = Downsample(s, 15);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->ValueAt(0), 2.0);
}

TEST(ResampleTest, DownsampleAllMissingBucketStaysMissing) {
  LoadSeries s = MakeSeries(
      {kMissingValue, kMissingValue, kMissingValue, 6, 6, 6});
  auto d = Downsample(s, 15);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->MissingAt(0));
  EXPECT_DOUBLE_EQ(d->ValueAt(1), 6.0);
}

TEST(ResampleTest, DownsampleSameIntervalIsIdentity) {
  LoadSeries s = MakeSeries({1, 2, 3});
  auto d = Downsample(s, 5);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->values(), s.values());
}

TEST(ResampleTest, DownsampleRejectsBadIntervals) {
  LoadSeries s = MakeSeries({1, 2, 3});
  EXPECT_FALSE(Downsample(s, 7).ok());    // not a multiple of 5
  EXPECT_FALSE(Downsample(s, 13 * 5).ok());  // doesn't divide a day... 65 min
}

TEST(ResampleTest, DownsamplePreservesMeanWhenComplete) {
  std::vector<double> v(288);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 17);
  LoadSeries s = MakeSeries(v);
  auto d = Downsample(s, 60);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->Mean(), s.Mean(), 1e-9);
}

TEST(ResampleTest, InterpolateFillsInteriorGapLinearly) {
  LoadSeries s = MakeSeries({0, kMissingValue, kMissingValue, 3});
  LoadSeries f = InterpolateMissing(s);
  EXPECT_DOUBLE_EQ(f.ValueAt(1), 1.0);
  EXPECT_DOUBLE_EQ(f.ValueAt(2), 2.0);
  EXPECT_EQ(f.CountMissing(), 0);
}

TEST(ResampleTest, InterpolateFillsEdgesWithNearest) {
  LoadSeries s = MakeSeries({kMissingValue, 5, kMissingValue});
  LoadSeries f = InterpolateMissing(s);
  EXPECT_DOUBLE_EQ(f.ValueAt(0), 5.0);
  EXPECT_DOUBLE_EQ(f.ValueAt(2), 5.0);
}

TEST(ResampleTest, InterpolateAllMissingUnchanged) {
  auto s = LoadSeries::MakeEmpty(0, 5, 3);
  LoadSeries f = InterpolateMissing(*s);
  EXPECT_EQ(f.CountPresent(), 0);
}

TEST(ResampleTest, InterpolateCompleteSeriesUnchanged) {
  LoadSeries s = MakeSeries({1, 2, 3});
  LoadSeries f = InterpolateMissing(s);
  EXPECT_EQ(f.values(), s.values());
}

}  // namespace
}  // namespace seagull
