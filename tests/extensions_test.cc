/// \file extensions_test.cc
/// \brief Tests for the paper's follow-up features: backup-day
/// optimization (§6.1) and the customer window advisor (§6.2).

#include <gtest/gtest.h>

#include "forecast/persistent.h"
#include "scheduling/day_optimizer.h"
#include "scheduling/window_advisor.h"

namespace seagull {
namespace {

/// Builds an endpoint serving a fleet-wide previous-equivalent-day
/// persistent model (weekly structure, so day choice is meaningful).
ModelEndpoint WeeklyEndpoint() {
  PersistentForecast model(PersistentVariant::kPreviousEquivalentDay);
  Json params = std::move(model.Serialize()).ValueOrDie();
  Json body = Json::MakeObject();
  body["family"] = "persistent_prev_eq_day";
  body["version"] = 1;
  Json models = Json::MakeObject();
  models[""] = params;
  body["models"] = std::move(models);
  return std::move(ModelEndpoint::FromVersionDoc(body)).ValueOrDie();
}

/// Two weeks of history where weekdays are busy all day and Sunday is
/// idle; backups should move to Sunday.
LoadSeries WeeklyHistory() {
  std::vector<double> values;
  for (int64_t i = 0; i < 2 * 7 * 288; ++i) {
    int64_t day = (i / 288) % 7;
    bool sunday = day == 6;
    values.push_back(sunday ? 3.0 : 55.0);
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

TEST(DayOptimizerTest, MovesToTheIdleDay) {
  ModelEndpoint endpoint = WeeklyEndpoint();
  LoadSeries history = WeeklyHistory();
  auto plan = PlanBackupDay(endpoint, "srv", history, /*week=*/2,
                            DayOfWeek::kWednesday, 120);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->moved_day);
  EXPECT_EQ(DayOfWeekOf(plan->chosen.day_index * kMinutesPerDay),
            DayOfWeek::kSunday);
  EXPECT_NEAR(plan->chosen.window.average_load, 3.0, 1.0);
  EXPECT_GT(plan->predicted_saving, 40.0);
  EXPECT_EQ(plan->candidates.size(), 7u);
}

TEST(DayOptimizerTest, StaysOnDefaultWhenSavingSmall) {
  ModelEndpoint endpoint = WeeklyEndpoint();
  // Flat history: every day looks the same.
  std::vector<double> flat(2 * 7 * 288, 20.0);
  LoadSeries history =
      std::move(LoadSeries::Make(0, 5, std::move(flat))).ValueOrDie();
  auto plan = PlanBackupDay(endpoint, "srv", history, 2,
                            DayOfWeek::kFriday, 120);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->moved_day);
  EXPECT_EQ(DayOfWeekOf(plan->chosen.day_index * kMinutesPerDay),
            DayOfWeek::kFriday);
  EXPECT_DOUBLE_EQ(plan->predicted_saving, 0.0);
}

TEST(DayOptimizerTest, MovesOnlyPastTheMinSavingMargin) {
  ModelEndpoint endpoint = WeeklyEndpoint();
  // Sunday sits `saving` points under every other day.
  auto plan_with_sunday_saving = [&](double saving) {
    std::vector<double> values;
    for (int64_t i = 0; i < 2 * 7 * 288; ++i) {
      int64_t day = (i / 288) % 7;
      values.push_back(day == 6 ? 20.0 - saving : 20.0);
    }
    LoadSeries history =
        std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
    return PlanBackupDay(endpoint, "srv", history, 2, DayOfWeek::kMonday,
                         120);
  };
  // One point short of the margin is not worth the reschedule...
  auto short_of_margin = plan_with_sunday_saving(kMinDaySaving - 1.0);
  ASSERT_TRUE(short_of_margin.ok());
  EXPECT_FALSE(short_of_margin->moved_day);
  // ...one point past it is.
  auto past_margin = plan_with_sunday_saving(kMinDaySaving + 1.0);
  ASSERT_TRUE(past_margin.ok());
  EXPECT_TRUE(past_margin->moved_day);
  EXPECT_EQ(DayOfWeekOf(past_margin->chosen.day_index * kMinutesPerDay),
            DayOfWeek::kSunday);
}

TEST(DayOptimizerTest, UnknownServerFails) {
  // Endpoint with only a per-server model for someone else.
  PersistentForecast model;
  Json body = Json::MakeObject();
  body["family"] = "persistent_prev_day";
  body["version"] = 1;
  Json models = Json::MakeObject();
  models["other"] = std::move(model.Serialize()).ValueOrDie();
  body["models"] = std::move(models);
  ModelEndpoint endpoint =
      std::move(ModelEndpoint::FromVersionDoc(body)).ValueOrDie();
  LoadSeries history = WeeklyHistory();
  EXPECT_TRUE(PlanBackupDay(endpoint, "srv", history, 2,
                            DayOfWeek::kMonday, 120)
                  .status()
                  .IsNotFound());
}

TEST(WindowAdvisorTest, FlagsBadCustomerWindow) {
  ModelEndpoint endpoint = WeeklyEndpoint();
  // History: nights idle, days busy.
  std::vector<double> values;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    values.push_back(i % 288 < 60 ? 4.0 : 50.0);
  }
  LoadSeries history =
      std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
  // Customer picked 14:00 on day 7 (same weekday as day 0).
  MinuteStamp customer = 7 * kMinutesPerDay + 14 * 60;
  auto advice = AdviseCustomerWindow(endpoint, "srv", history, customer, 60);
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_FALSE(advice->customer_window_ok);
  EXPECT_GT(advice->predicted_saving, 30.0);
  EXPECT_LT(MinuteOfDay(advice->suggested.start), 5 * 60);
}

TEST(WindowAdvisorTest, AcceptsGoodCustomerWindow) {
  ModelEndpoint endpoint = WeeklyEndpoint();
  std::vector<double> values;
  for (int64_t i = 0; i < 7 * 288; ++i) {
    values.push_back(i % 288 < 60 ? 4.0 : 50.0);
  }
  LoadSeries history =
      std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
  MinuteStamp customer = 7 * kMinutesPerDay + 60;  // 01:00, in the valley
  auto advice = AdviseCustomerWindow(endpoint, "srv", history, customer, 60);
  ASSERT_TRUE(advice.ok());
  EXPECT_TRUE(advice->customer_window_ok);
}

TEST(WindowAdvisorTest, RejectsCrossDayWindow) {
  ModelEndpoint endpoint = WeeklyEndpoint();
  LoadSeries history = WeeklyHistory();
  MinuteStamp customer = 7 * kMinutesPerDay + 23 * 60 + 30;
  EXPECT_TRUE(AdviseCustomerWindow(endpoint, "srv", history, customer, 120)
                  .status()
                  .IsInvalid());
}

}  // namespace
}  // namespace seagull
