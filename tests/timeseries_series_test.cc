#include "timeseries/series.h"

#include <gtest/gtest.h>

namespace seagull {
namespace {

LoadSeries MakeSeries(MinuteStamp start, std::vector<double> values,
                      int64_t interval = kServerIntervalMinutes) {
  auto r = LoadSeries::Make(start, interval, std::move(values));
  r.status().Abort();
  return std::move(r).ValueUnsafe();
}

TEST(SeriesTest, MakeValidatesAlignment) {
  EXPECT_TRUE(LoadSeries::Make(0, 5, {1, 2}).ok());
  EXPECT_FALSE(LoadSeries::Make(3, 5, {1}).ok());   // unaligned start
  EXPECT_FALSE(LoadSeries::Make(0, 7, {1}).ok());   // 7 doesn't divide a day
  EXPECT_FALSE(LoadSeries::Make(0, 0, {1}).ok());   // zero interval
  EXPECT_FALSE(LoadSeries::Make(0, -5, {1}).ok());  // negative interval
}

TEST(SeriesTest, BasicAccessors) {
  LoadSeries s = MakeSeries(100, {1, 2, 3});
  EXPECT_EQ(s.start(), 100);
  EXPECT_EQ(s.end(), 115);
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.TimeAt(2), 110);
  EXPECT_EQ(s.ticks_per_day(), 288);
  EXPECT_DOUBLE_EQ(s.ValueAt(1), 2.0);
}

TEST(SeriesTest, IndexOf) {
  LoadSeries s = MakeSeries(100, {1, 2, 3});
  EXPECT_EQ(s.IndexOf(100), 0);
  EXPECT_EQ(s.IndexOf(110), 2);
  EXPECT_EQ(s.IndexOf(115), -1);  // one past end
  EXPECT_EQ(s.IndexOf(95), -1);   // before start
  EXPECT_EQ(s.IndexOf(102), -1);  // off the grid
}

TEST(SeriesTest, ValueAtTimeOutOfRangeIsMissing) {
  LoadSeries s = MakeSeries(0, {1.0});
  EXPECT_TRUE(IsMissing(s.ValueAtTime(500)));
  EXPECT_DOUBLE_EQ(s.ValueAtTime(0), 1.0);
}

TEST(SeriesTest, MissingValues) {
  LoadSeries s = MakeSeries(0, {1, kMissingValue, 3});
  EXPECT_TRUE(s.MissingAt(1));
  EXPECT_FALSE(s.MissingAt(0));
  EXPECT_EQ(s.CountPresent(), 2);
  EXPECT_EQ(s.CountMissing(), 1);
}

TEST(SeriesTest, MakeEmptyIsAllMissing) {
  auto s = LoadSeries::MakeEmpty(0, 5, 4);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 4);
  EXPECT_EQ(s->CountPresent(), 0);
  EXPECT_FALSE(LoadSeries::MakeEmpty(0, 5, -1).ok());
}

TEST(SeriesTest, SliceWithinBounds) {
  LoadSeries s = MakeSeries(0, {0, 1, 2, 3, 4, 5});
  LoadSeries slice = s.Slice(10, 25);
  EXPECT_EQ(slice.start(), 10);
  EXPECT_EQ(slice.size(), 3);
  EXPECT_DOUBLE_EQ(slice.ValueAt(0), 2.0);
  EXPECT_DOUBLE_EQ(slice.ValueAt(2), 4.0);
}

TEST(SeriesTest, SliceClampsToBounds) {
  LoadSeries s = MakeSeries(0, {0, 1, 2});
  LoadSeries slice = s.Slice(-100, 1000);
  EXPECT_EQ(slice.size(), 3);
  EXPECT_EQ(slice.start(), 0);
}

TEST(SeriesTest, SliceEmptyRange) {
  LoadSeries s = MakeSeries(0, {0, 1, 2});
  EXPECT_TRUE(s.Slice(10, 10).empty());
  EXPECT_TRUE(s.Slice(100, 200).empty());
}

TEST(SeriesTest, SliceDay) {
  std::vector<double> two_days(2 * 288);
  for (size_t i = 0; i < two_days.size(); ++i) {
    two_days[i] = static_cast<double>(i);
  }
  LoadSeries s = MakeSeries(0, two_days);
  LoadSeries day1 = s.SliceDay(1);
  EXPECT_EQ(day1.size(), 288);
  EXPECT_EQ(day1.start(), kMinutesPerDay);
  EXPECT_DOUBLE_EQ(day1.ValueAt(0), 288.0);
}

TEST(SeriesTest, ShiftedToKeepsValues) {
  LoadSeries s = MakeSeries(0, {7, 8, 9});
  LoadSeries shifted = s.ShiftedTo(kMinutesPerDay);
  EXPECT_EQ(shifted.start(), kMinutesPerDay);
  EXPECT_DOUBLE_EQ(shifted.ValueAt(0), 7.0);
  EXPECT_EQ(shifted.size(), 3);
}

TEST(SeriesTest, MeanSkipsMissing) {
  LoadSeries s = MakeSeries(0, {2, kMissingValue, 4});
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
}

TEST(SeriesTest, MeanOfAllMissingIsMissing) {
  auto s = LoadSeries::MakeEmpty(0, 5, 3);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(IsMissing(s->Mean()));
  EXPECT_TRUE(IsMissing(s->Min()));
  EXPECT_TRUE(IsMissing(s->Max()));
}

TEST(SeriesTest, MeanInRange) {
  LoadSeries s = MakeSeries(0, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.MeanInRange(5, 15), 2.5);
  EXPECT_DOUBLE_EQ(s.MeanInRange(0, 20), 2.5);
  EXPECT_TRUE(IsMissing(s.MeanInRange(100, 200)));
}

TEST(SeriesTest, MergeExtendsRange) {
  LoadSeries a = MakeSeries(0, {1, 2});
  LoadSeries b = MakeSeries(20, {5, 6});
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.start(), 0);
  EXPECT_EQ(a.end(), 30);
  EXPECT_DOUBLE_EQ(a.ValueAt(0), 1.0);
  EXPECT_TRUE(a.MissingAt(2));  // the gap
  EXPECT_DOUBLE_EQ(a.ValueAtTime(20), 5.0);
}

TEST(SeriesTest, MergePresentWins) {
  LoadSeries a = MakeSeries(0, {1, kMissingValue});
  LoadSeries b = MakeSeries(0, {kMissingValue, 9});
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_DOUBLE_EQ(a.ValueAt(0), 1.0);  // b missing does not clobber
  EXPECT_DOUBLE_EQ(a.ValueAt(1), 9.0);
}

TEST(SeriesTest, MergeIntervalMismatchFails) {
  LoadSeries a = MakeSeries(0, {1});
  LoadSeries b = MakeSeries(0, {1}, 15);
  EXPECT_FALSE(a.MergeFrom(b).ok());
}

}  // namespace
}  // namespace seagull
