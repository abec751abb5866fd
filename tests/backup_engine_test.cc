#include "scheduling/backup_engine.h"

#include <gtest/gtest.h>

namespace seagull {
namespace {

LoadSeries FlatLoad(double level, int64_t ticks, MinuteStamp start = 0) {
  return std::move(LoadSeries::Make(
                       start, 5,
                       std::vector<double>(static_cast<size_t>(ticks),
                                           level)))
      .ValueOrDie();
}

TEST(BackupEngineTest, IdleServerRunsAtPlannedSpeed) {
  LoadSeries idle = FlatLoad(0.0, 288);
  // 6000 MB at 100 MB/min = 60 minutes planned.
  auto run = SimulateBackup(idle, 0, 6000.0);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->completed);
  EXPECT_DOUBLE_EQ(run->planned_minutes, 60.0);
  EXPECT_NEAR(run->actual_minutes(), 60.0, 5.0);
  EXPECT_NEAR(run->Stretch(), 1.0, 0.1);
  EXPECT_NEAR(run->avg_overlapped_load, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(run->contended_minutes, 0.0);
}

TEST(BackupEngineTest, BusyServerStretchesBackup) {
  LoadSeries busy = FlatLoad(70.0, 288);
  auto run = SimulateBackup(busy, 0, 6000.0);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->completed);
  // At 70% load the backup gets a 30% share: ~3.3x stretch.
  EXPECT_GT(run->Stretch(), 2.5);
  EXPECT_LT(run->Stretch(), 4.5);
  EXPECT_NEAR(run->avg_overlapped_load, 70.0, 1.0);
  EXPECT_GT(run->contended_minutes, 100.0);
}

TEST(BackupEngineTest, MinShareBoundsStarvation) {
  LoadSeries pegged = FlatLoad(100.0, 2000);
  auto run = SimulateBackup(pegged, 0, 6000.0);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->completed);
  EXPECT_NEAR(run->Stretch(), 1.0 / kBackupMinShare, 0.5);
}

TEST(BackupEngineTest, TimesOutOnEndlessContention) {
  LoadSeries pegged = FlatLoad(100.0, 30 * 288);
  // 60000 MB at the 15 MB/min starvation floor would need 4000 minutes,
  // past the 24-hour give-up point.
  auto run = SimulateBackup(pegged, 0, 60000.0);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->completed);
  EXPECT_EQ(run->end - run->start, kBackupMaxDurationMinutes);
}

TEST(BackupEngineTest, ValleyPlacementBeatsPeakPlacement) {
  // Day with an idle night and a busy afternoon.
  std::vector<double> day(288);
  for (int64_t i = 0; i < 288; ++i) {
    day[static_cast<size_t>(i)] = (i < 60) ? 3.0 : 75.0;
  }
  LoadSeries load =
      std::move(LoadSeries::Make(0, 5, std::move(day))).ValueOrDie();
  auto night = SimulateBackup(load, 0, 4000.0);
  auto afternoon = SimulateBackup(load, 14 * 60, 4000.0);
  ASSERT_TRUE(night.ok());
  ASSERT_TRUE(afternoon.ok());
  EXPECT_LT(night->Stretch(), 1.2);
  EXPECT_GT(afternoon->Stretch(), 2.0);
  EXPECT_LT(night->contended_minutes, 1.0);
  EXPECT_GT(afternoon->contended_minutes, 60.0);
}

TEST(BackupEngineTest, MissingTelemetryTreatedAsIdle) {
  auto gaps = LoadSeries::MakeEmpty(0, 5, 288);
  auto run = SimulateBackup(*gaps, 0, 3000.0);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->completed);
  EXPECT_NEAR(run->Stretch(), 1.0, 0.2);
}

TEST(BackupEngineTest, InvalidInputsRejected) {
  LoadSeries idle = FlatLoad(0.0, 288);
  EXPECT_TRUE(SimulateBackup(idle, 0, -5.0).status().IsInvalid());
  EXPECT_TRUE(SimulateBackup(idle, 3, 100.0).status().IsInvalid());
}

TEST(BackupEngineTest, PlannedMinutes) {
  EXPECT_DOUBLE_EQ(PlannedMinutes(6000.0), 60.0);
}

}  // namespace
}  // namespace seagull
