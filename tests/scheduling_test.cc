#include <gtest/gtest.h>

#include "common/strings.h"
#include "forecast/persistent.h"
#include "pipeline/scheduler.h"
#include "scheduling/backup_service.h"
#include "scheduling/impact.h"
#include "scheduling/simulation.h"

namespace seagull {
namespace {

TEST(ServiceFabricTest, SetGetClear) {
  ServiceFabricProperties props;
  EXPECT_FALSE(props.Get("srv", "p").has_value());
  props.Set("srv", "p", "v");
  EXPECT_EQ(*props.Get("srv", "p"), "v");
  EXPECT_EQ(props.Count(), 1);
  props.Clear("srv", "p");
  EXPECT_FALSE(props.Get("srv", "p").has_value());
  props.Clear("srv", "p");  // idempotent
}

TEST(ServiceFabricTest, BackupWindowTyped) {
  ServiceFabricProperties props;
  EXPECT_FALSE(props.GetBackupWindowStart("srv").has_value());
  props.SetBackupWindowStart("srv", 12345);
  ASSERT_TRUE(props.GetBackupWindowStart("srv").has_value());
  EXPECT_EQ(*props.GetBackupWindowStart("srv"), 12345);
}

TEST(ServiceFabricTest, MalformedPropertyReadsAsUnset) {
  ServiceFabricProperties props;
  props.Set("srv", kBackupWindowProperty, "not-a-number");
  EXPECT_FALSE(props.GetBackupWindowStart("srv").has_value());
}

class BackupSchedulerTest : public ::testing::Test {
 protected:
  static constexpr int64_t kDay = 21;  // week 3, Monday
  static constexpr int64_t kWeek = 3;

  void SetUp() override {
    // Valleyed recent load: low before 04:00 each day.
    std::vector<double> values;
    for (int64_t i = 0; i < 7 * 288; ++i) {
      values.push_back(i % 288 < 48 ? 4.0 : 45.0);
    }
    recent_ = std::move(LoadSeries::Make((kDay - 7) * kMinutesPerDay, 5,
                                         std::move(values)))
                  .ValueOrDie();
    // Accuracy doc marking the server predictable for week 3.
    StoreAccuracyDoc("srv-1", true);
    // Active persistent endpoint.
    PersistentForecast model;
    Json params = std::move(model.Serialize()).ValueOrDie();
    Json body = Json::MakeObject();
    body["family"] = "persistent_prev_day";
    body["version"] = 1;
    Json models = Json::MakeObject();
    models[""] = params;
    body["models"] = std::move(models);
    Document doc;
    doc.partition_key = "r";
    doc.id = "v000001";
    doc.body = std::move(body);
    docs_.GetContainer(kModelRegistryContainer)->Upsert(doc).Abort();
    SetActiveVersion(&docs_, "r", 1, "test").Abort();
  }

  void StoreAccuracyDoc(const std::string& server_id, bool predictable) {
    Document doc;
    doc.partition_key = "r";
    doc.id = StringPrintf("w%04lld:%s", static_cast<long long>(kWeek),
                          server_id.c_str());
    doc.body = Json::MakeObject();
    doc.body["predictable"] = predictable;
    docs_.GetContainer(kAccuracyContainer)->Upsert(doc).Abort();
  }

  DueServer MakeDue(const std::string& id) {
    DueServer due;
    due.server_id = id;
    due.recent_load = recent_;
    due.default_start = kDay * kMinutesPerDay + 14 * 60;  // 2pm: busy
    due.default_end = due.default_start + 60;
    due.backup_duration_minutes = 60;
    return due;
  }

  DocStore docs_;
  ServiceFabricProperties props_;
  LoadSeries recent_;
};

TEST_F(BackupSchedulerTest, PredictableServerMovesToValley) {
  BackupScheduler scheduler(&docs_, &props_);
  auto schedules = scheduler.ScheduleDay("r", kDay, {MakeDue("srv-1")});
  ASSERT_EQ(schedules.size(), 1u);
  const ScheduledBackup& s = schedules[0];
  EXPECT_EQ(s.decision, ScheduleDecision::kScheduledLowLoad);
  EXPECT_TRUE(s.moved());
  // The chosen window sits in the predicted valley (before 04:00).
  EXPECT_LT(MinuteOfDay(s.window_start), 4 * 60);
  // Property published for the backup service.
  ASSERT_TRUE(props_.GetBackupWindowStart("srv-1").has_value());
  EXPECT_EQ(*props_.GetBackupWindowStart("srv-1"), s.window_start);
}

TEST_F(BackupSchedulerTest, UnpredictableKeepsDefault) {
  StoreAccuracyDoc("srv-2", false);
  BackupScheduler scheduler(&docs_, &props_);
  auto schedules = scheduler.ScheduleDay("r", kDay, {MakeDue("srv-2")});
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_EQ(schedules[0].decision,
            ScheduleDecision::kDefaultNotPredictable);
  EXPECT_EQ(schedules[0].window_start, schedules[0].default_start);
  EXPECT_FALSE(props_.GetBackupWindowStart("srv-2").has_value());
}

TEST_F(BackupSchedulerTest, UnknownServerKeepsDefault) {
  BackupScheduler scheduler(&docs_, &props_);
  auto schedules = scheduler.ScheduleDay("r", kDay, {MakeDue("ghost")});
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_EQ(schedules[0].decision, ScheduleDecision::kDefaultNoHistory);
}

TEST_F(BackupSchedulerTest, ForecastFailureKeepsDefault) {
  StoreAccuracyDoc("srv-3", true);
  DueServer due = MakeDue("srv-3");
  due.recent_load = LoadSeries();  // endpoint cannot forecast
  BackupScheduler scheduler(&docs_, &props_);
  auto schedules = scheduler.ScheduleDay("r", kDay, {due});
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_EQ(schedules[0].decision,
            ScheduleDecision::kDefaultForecastFailed);
}

TEST_F(BackupSchedulerTest, DecisionNames) {
  EXPECT_STREQ(ScheduleDecisionName(ScheduleDecision::kScheduledLowLoad),
               "scheduled_low_load");
  EXPECT_STREQ(
      ScheduleDecisionName(ScheduleDecision::kDefaultNotPredictable),
      "default_not_predictable");
}

TEST_F(BackupSchedulerTest, BackupServiceHonorsProperty) {
  BackupScheduler scheduler(&docs_, &props_);
  auto schedules = scheduler.ScheduleDay("r", kDay, {MakeDue("srv-1")});
  ASSERT_EQ(schedules.size(), 1u);
  // True load for the backup day: same valley shape.
  std::vector<double> day(288);
  for (int64_t i = 0; i < 288; ++i) day[static_cast<size_t>(i)] =
      i < 48 ? 4.0 : 45.0;
  LoadSeries true_day =
      std::move(LoadSeries::Make(kDay * kMinutesPerDay, 5, std::move(day)))
          .ValueOrDie();
  BackupService service(&props_);
  BackupExecution exec = service.Execute(
      "srv-1", kDay, schedules[0].default_start, 60, true_day);
  EXPECT_TRUE(exec.used_scheduled_window);
  EXPECT_EQ(exec.start, schedules[0].window_start);
  EXPECT_NEAR(exec.avg_true_load, 4.0, 1.0);
  EXPECT_FALSE(exec.collided);
}

TEST_F(BackupSchedulerTest, BackupServiceIgnoresStaleProperty) {
  props_.SetBackupWindowStart("srv-9", (kDay - 7) * kMinutesPerDay);
  std::vector<double> day(288, 30.0);
  LoadSeries true_day =
      std::move(LoadSeries::Make(kDay * kMinutesPerDay, 5, std::move(day)))
          .ValueOrDie();
  BackupService service(&props_);
  MinuteStamp default_start = kDay * kMinutesPerDay + 600;
  BackupExecution exec =
      service.Execute("srv-9", kDay, default_start, 60, true_day);
  EXPECT_FALSE(exec.used_scheduled_window);
  EXPECT_EQ(exec.start, default_start);
}

TEST(ImpactTest, ClassifiesMovedBackups) {
  ImpactEvaluator impact;
  // Day with a deep valley; default in the busy part, schedule in valley.
  std::vector<double> day(288, 50.0);
  for (int64_t i = 0; i < 48; ++i) day[static_cast<size_t>(i)] = 4.0;
  LoadSeries true_day =
      std::move(LoadSeries::Make(0, 5, std::move(day))).ValueOrDie();
  ScheduledBackup sched;
  sched.server_id = "s";
  sched.day_index = 0;
  sched.decision = ScheduleDecision::kScheduledLowLoad;
  sched.window_start = 0;
  sched.window_end = 60;
  sched.default_start = 14 * 60;
  sched.default_end = 15 * 60;
  BackupPlacement p = impact.AddBackup(sched, true_day);
  EXPECT_TRUE(p.moved);
  EXPECT_TRUE(p.executed_is_ll);
  EXPECT_FALSE(p.default_is_ll);
  EXPECT_EQ(impact.impact().moved_to_ll, 1);
  EXPECT_GT(impact.impact().improved_minutes, 0.0);
}

TEST(ImpactTest, DefaultAlreadyLowLoad) {
  ImpactEvaluator impact;
  std::vector<double> day(288, 10.0);  // flat: every window is LL
  LoadSeries true_day =
      std::move(LoadSeries::Make(0, 5, std::move(day))).ValueOrDie();
  ScheduledBackup sched;
  sched.decision = ScheduleDecision::kDefaultNotPredictable;
  sched.window_start = sched.default_start = 100;
  sched.window_end = sched.default_end = 160;
  impact.AddBackup(sched, true_day);
  EXPECT_EQ(impact.impact().default_already_ll, 1);
  EXPECT_EQ(impact.impact().incorrect, 0);
}

TEST(ImpactTest, IncorrectWindow) {
  ImpactEvaluator impact;
  std::vector<double> day(288, 50.0);
  for (int64_t i = 0; i < 48; ++i) day[static_cast<size_t>(i)] = 4.0;
  LoadSeries true_day =
      std::move(LoadSeries::Make(0, 5, std::move(day))).ValueOrDie();
  ScheduledBackup sched;
  sched.decision = ScheduleDecision::kScheduledLowLoad;
  sched.window_start = 14 * 60;  // busy part
  sched.window_end = 15 * 60;
  sched.default_start = 14 * 60;
  sched.default_end = 15 * 60;
  impact.AddBackup(sched, true_day);
  EXPECT_EQ(impact.impact().incorrect, 1);
}

TEST(ImpactTest, BusyCohortCollisionAccounting) {
  ImpactEvaluator impact;
  // Peak above kBusyLoadPct (60) midday; valley at night.
  std::vector<double> day(288, 30.0);
  for (int64_t i = 140; i < 170; ++i) day[static_cast<size_t>(i)] = 80.0;
  for (int64_t i = 0; i < 48; ++i) day[static_cast<size_t>(i)] = 5.0;
  LoadSeries true_day =
      std::move(LoadSeries::Make(0, 5, std::move(day))).ValueOrDie();
  ScheduledBackup sched;
  sched.decision = ScheduleDecision::kScheduledLowLoad;
  sched.window_start = 0;  // valley
  sched.window_end = 60;
  sched.default_start = 145 * 5;  // inside the peak
  sched.default_end = 145 * 5 + 60;
  impact.AddBackup(sched, true_day);
  EXPECT_EQ(impact.impact().busy_backups, 1);
  EXPECT_EQ(impact.impact().busy_default_collisions, 1);
  EXPECT_EQ(impact.impact().busy_executed_collisions, 0);
  EXPECT_DOUBLE_EQ(impact.impact().BusyCollisionsAvoided(), 1.0);
}

TEST(ImpactTest, CapacityHistogram) {
  ImpactEvaluator impact;
  auto add = [&](double peak) {
    std::vector<double> week(288, peak / 2);
    week[0] = peak;
    impact.AddServerWeek("s", std::move(LoadSeries::Make(
                                  0, 5, std::move(week)))
                                  .ValueOrDie());
  };
  add(15.0);
  add(25.0);
  add(99.9);
  const CapacityReport& cap = impact.capacity();
  EXPECT_EQ(cap.servers, 3);
  EXPECT_EQ(cap.histogram[1], 1);
  EXPECT_EQ(cap.histogram[2], 1);
  EXPECT_EQ(cap.histogram[9], 1);
  EXPECT_EQ(cap.at_capacity, 1);
  EXPECT_NEAR(cap.FractionAtCapacity(), 1.0 / 3.0, 1e-9);
}

TEST(DueServersTest, MatchesBackupDayAndLifespan) {
  RegionConfig config;
  config.name = "due";
  config.num_servers = 50;
  config.weeks = 4;
  config.seed = 5;
  Fleet fleet = Fleet::Generate(config);
  int64_t day = 3 * 7 + 2;  // week 3, Wednesday
  auto due = DueServersForDay(fleet, day);
  for (const auto& d : due) {
    const ServerProfile* p = fleet.Find(d.server_id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->backup_day, DayOfWeek::kWednesday);
    EXPECT_TRUE(p->IsAliveAt(day * kMinutesPerDay));
    EXPECT_EQ(d.backup_duration_minutes, p->backup_duration_minutes);
    EXPECT_FALSE(d.recent_load.empty());
    // Recent load ends at the scheduling boundary.
    EXPECT_LE(d.recent_load.end(), day * kMinutesPerDay);
  }
}

}  // namespace
}  // namespace seagull
