#include "forecast/persistent.h"

#include <gtest/gtest.h>

#include <cmath>

namespace seagull {
namespace {

// Two weeks of history where value = day index (flat within a day).
LoadSeries DayIndexedHistory(int64_t days) {
  std::vector<double> values;
  for (int64_t d = 0; d < days; ++d) {
    for (int64_t i = 0; i < 288; ++i) {
      values.push_back(static_cast<double>(d));
    }
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(PersistentTest, PreviousDayReplicatesYesterday) {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  LoadSeries history = DayIndexedHistory(7);
  auto forecast =
      model.Forecast(history, 7 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->size(), 288);
  for (int64_t i = 0; i < forecast->size(); ++i) {
    EXPECT_DOUBLE_EQ(forecast->ValueAt(i), 6.0);  // yesterday was day 6
  }
}

TEST(PersistentTest, PreviousDayMultiDayHorizonFoldsBack) {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  LoadSeries history = DayIndexedHistory(7);
  auto forecast =
      model.Forecast(history, 7 * kMinutesPerDay, 3 * kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  // Every forecast day replicates the last observed day.
  EXPECT_DOUBLE_EQ(forecast->ValueAtTime(7 * kMinutesPerDay), 6.0);
  EXPECT_DOUBLE_EQ(forecast->ValueAtTime(8 * kMinutesPerDay), 6.0);
  EXPECT_DOUBLE_EQ(forecast->ValueAtTime(9 * kMinutesPerDay + 600), 6.0);
}

TEST(PersistentTest, PreviousEquivalentDayReplicatesLastWeek) {
  PersistentForecast model(PersistentVariant::kPreviousEquivalentDay);
  LoadSeries history = DayIndexedHistory(14);
  auto forecast =
      model.Forecast(history, 14 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); ++i) {
    EXPECT_DOUBLE_EQ(forecast->ValueAt(i), 7.0);  // same weekday last week
  }
}

TEST(PersistentTest, PreviousWeekAverageIsFlat) {
  PersistentForecast model(PersistentVariant::kPreviousWeekAverage);
  LoadSeries history = DayIndexedHistory(14);  // last week: days 7..13
  auto forecast =
      model.Forecast(history, 14 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  for (int64_t i = 0; i < forecast->size(); ++i) {
    EXPECT_DOUBLE_EQ(forecast->ValueAt(i), 10.0);  // mean of 7..13
  }
}

TEST(PersistentTest, MissingSourceSamplesStayMissing) {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  auto history = LoadSeries::MakeEmpty(0, 5, 288);
  history->SetValue(0, 42.0);
  auto forecast =
      model.Forecast(*history, kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  EXPECT_DOUBLE_EQ(forecast->ValueAt(0), 42.0);
  EXPECT_TRUE(forecast->MissingAt(1));
}

TEST(PersistentTest, RequiresHistory) {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  LoadSeries empty;
  EXPECT_TRUE(model.Forecast(empty, 0, kMinutesPerDay)
                  .status()
                  .IsFailedPrecondition());
}

TEST(PersistentTest, RejectsMisalignedRange) {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  LoadSeries history = DayIndexedHistory(2);
  EXPECT_TRUE(model.Forecast(history, 2 * kMinutesPerDay + 3, 60)
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(model.Forecast(history, 2 * kMinutesPerDay, 61)
                  .status()
                  .IsInvalid());
}

TEST(PersistentTest, NoTrainingRequired) {
  PersistentForecast model;
  EXPECT_FALSE(model.requires_training());
  EXPECT_TRUE(model.Fit(DayIndexedHistory(1)).ok());
}

TEST(PersistentTest, NamesAndSerialization) {
  for (auto variant : {PersistentVariant::kPreviousDay,
                       PersistentVariant::kPreviousEquivalentDay,
                       PersistentVariant::kPreviousWeekAverage}) {
    PersistentForecast model(variant);
    auto doc = model.Serialize();
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(*doc->GetString("model"), model.name());
    PersistentForecast restored(PersistentVariant::kPreviousDay);
    ASSERT_TRUE(restored.Deserialize(*doc).ok());
    EXPECT_EQ(restored.variant(), variant);
  }
}

TEST(PersistentTest, DeserializeRejectsBadVariant) {
  Json doc = Json::MakeObject();
  doc["variant"] = 99;
  PersistentForecast model;
  EXPECT_FALSE(model.Deserialize(doc).ok());
}

TEST(PersistentTest, HostileVariantsRestoreInvalid) {
  // The variant used to be cast to int before its range check, so 1e300
  // converted out of range.
  for (double variant : {1e300, -1e300, 1.5, -1.0, 3.0}) {
    Json doc = Json::MakeObject();
    doc["model"] = "persistent_prev_day";
    doc["variant"] = variant;
    auto restored = ModelFactory::Global().Restore(doc);
    EXPECT_TRUE(restored.status().IsInvalid())
        << variant << ": " << restored.status().ToString();
  }
}

TEST(PersistentTest, WeekAverageFallsBackToOverallMean) {
  PersistentForecast model(PersistentVariant::kPreviousWeekAverage);
  // Only two days of history; the "previous week" range [7d, 14d) before
  // forecast start 14d... use start right after the data instead.
  LoadSeries history = DayIndexedHistory(2);
  // Forecast starting 10 days after the data ends: previous week has no
  // samples, so the overall mean (0.5) is used.
  auto forecast =
      model.Forecast(history, 12 * kMinutesPerDay, kMinutesPerDay);
  ASSERT_TRUE(forecast.ok());
  EXPECT_DOUBLE_EQ(forecast->ValueAt(0), 0.5);
}

}  // namespace
}  // namespace seagull
