/// \file backup_service.h
/// \brief The backup service: executes full backups in their windows on
/// the simulated fleet and records the interference with customer load.
///
/// In production the backup service reads the service-fabric property
/// written by the scheduler and runs the backup there; servers without
/// the property run at their default time. The simulator charges the
/// backup against the server's ground-truth load so impact accounting
/// (Figure 13) can compare what the customer actually experienced.

#pragma once

#include <vector>

#include "scheduling/backup_scheduler.h"
#include "timeseries/series.h"

namespace seagull {

/// \brief What one executed backup experienced.
struct BackupExecution {
  std::string server_id;
  int64_t day_index = 0;
  MinuteStamp start = 0;
  MinuteStamp end = 0;
  /// True when the window came from the scheduler's property rather than
  /// the default.
  bool used_scheduled_window = false;
  /// Customer load observed during the backup window.
  double avg_true_load = 0.0;
  double peak_true_load = 0.0;
  /// The window collided with a peak of customer activity.
  bool collided = false;
};

/// \brief Executes backups against ground-truth load.
class BackupService {
 public:
  /// A window whose true load peaks at `kBusyLoadPct` or above counts
  /// as colliding with customer activity.
  explicit BackupService(const ServiceFabricProperties* properties)
      : properties_(properties) {}

  /// Runs one server's backup for `day_index`. The window is the
  /// service-fabric property when present, else the default.
  BackupExecution Execute(const std::string& server_id, int64_t day_index,
                          MinuteStamp default_start,
                          int64_t backup_duration_minutes,
                          const LoadSeries& true_load) const;

 private:
  const ServiceFabricProperties* properties_;
};

}  // namespace seagull
