/// \file day_optimizer.h
/// \brief Backup *day* optimization — the §6.1 follow-up feature.
///
/// "To further optimize backup scheduling, we will move a backup of a
/// server from its default backup day to other day of the week if the
/// load is lower and/or prediction is more accurate on another day."
/// Given the active endpoint, this module forecasts every day of the
/// scheduling week, finds each day's lowest-load window, and picks the
/// (day, window) with the lowest predicted load — holding on to the
/// default day unless another day is better by `kMinDaySaving` points
/// (rescheduling has operational cost).

#pragma once

#include "pipeline/deployment.h"
#include "timeseries/window.h"

namespace seagull {

/// \brief One candidate day's best window.
struct DayCandidate {
  int64_t day_index = 0;
  WindowResult window;
};

/// \brief The optimizer's decision for one server-week.
struct DayPlan {
  /// Chosen backup day and window.
  DayCandidate chosen;
  /// The default day's best window, for comparison.
  DayCandidate default_day;
  /// True when the plan moved off the default day.
  bool moved_day = false;
  /// Predicted load saved by moving days (percentage points).
  double predicted_saving = 0.0;
  /// All evaluated candidates, ordered by day.
  std::vector<DayCandidate> candidates;
};

/// Move off the default day only when the predicted LL-window average
/// improves by at least this many points.
inline constexpr double kMinDaySaving = 5.0;

/// Plans the best backup day within `week` for one server. `recent` is
/// the telemetry available at planning time (up to the start of the
/// week); days the endpoint cannot forecast are skipped.
Result<DayPlan> PlanBackupDay(const ModelEndpoint& endpoint,
                              const std::string& server_id,
                              const LoadSeries& recent, int64_t week,
                              DayOfWeek default_day,
                              int64_t backup_duration_minutes);

}  // namespace seagull
