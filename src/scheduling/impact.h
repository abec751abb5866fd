/// \file impact.h
/// \brief Impact accounting for Figure 13: where backups landed relative
/// to the true lowest-load windows (13a) and how much CPU capacity the
/// fleet actually uses (13b).

#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/config.h"
#include "scheduling/backup_scheduler.h"
#include "timeseries/series.h"

namespace seagull {

/// \brief One backup's placement relative to the day's true LL window.
struct BackupPlacement {
  std::string server_id;
  int64_t day_index = 0;
  ScheduleDecision decision = ScheduleDecision::kDefaultNoHistory;
  /// Average true load in the executed window / the default window / the
  /// day's true LL window.
  double avg_true_executed = 0.0;
  double avg_true_default = 0.0;
  double avg_true_ll = 0.0;
  /// The executed (resp. default) window is within tolerance of the true
  /// LL window (Definition 8 applied to window placement).
  bool executed_is_ll = false;
  bool default_is_ll = false;
  bool moved = false;
};

/// \brief Figure 13(a)-style aggregate for one cohort of backups.
struct ImpactReport {
  int64_t backups = 0;
  /// Moved off a default window that collided with activity onto a
  /// correctly chosen LL window.
  int64_t moved_to_ll = 0;
  /// Default window already coincided with an LL window.
  int64_t default_already_ll = 0;
  /// Executed window was not a correctly chosen LL window.
  int64_t incorrect = 0;
  /// Moved, correct, and the default was also fine — no customer-visible
  /// change.
  int64_t moved_neutral = 0;

  /// Busy-server cohort (§6.2: customer load over the busy threshold).
  int64_t busy_backups = 0;
  int64_t busy_default_collisions = 0;
  int64_t busy_executed_collisions = 0;

  /// Minutes of backup time moved out of measurably higher load — the
  /// "hours of improved customer experience" figure.
  double improved_minutes = 0.0;

  double FractionMoved() const;
  double FractionDefaultLl() const;
  double FractionIncorrect() const;
  /// Fraction of busy-cohort collisions avoided by scheduling.
  double BusyCollisionsAvoided() const;
};

/// \brief Figure 13(b): fleet capacity-utilization histogram.
struct CapacityReport {
  /// Bucket k counts servers whose weekly max CPU lies in
  /// [10k, 10(k+1)) percent; the last bucket is [90, 100].
  std::array<int64_t, 10> histogram = {};
  int64_t servers = 0;
  int64_t at_capacity = 0;  ///< weekly max CPU >= `kCapacityPct` (impact.cc)

  double FractionAtCapacity() const;
};

/// \brief Accumulates placements into the Figure 13 reports.
class ImpactEvaluator {
 public:
  explicit ImpactEvaluator(AccuracyConfig accuracy = {})
      : accuracy_(accuracy) {}

  /// Classifies one scheduled backup against ground truth and folds it
  /// into the report. Returns the placement for inspection.
  BackupPlacement AddBackup(const ScheduledBackup& backup,
                            const LoadSeries& true_load);

  /// Adds one server's week of true load to the capacity report.
  void AddServerWeek(const std::string& server_id,
                     const LoadSeries& true_week_load);

  const ImpactReport& impact() const { return impact_; }
  const CapacityReport& capacity() const { return capacity_; }

  /// Renders both reports as a text block.
  std::string Render() const;

 private:
  AccuracyConfig accuracy_;
  ImpactReport impact_;
  CapacityReport capacity_;
};

}  // namespace seagull
