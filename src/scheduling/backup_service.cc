#include "scheduling/backup_service.h"

#include <algorithm>

#include "common/config.h"

namespace seagull {

BackupExecution BackupService::Execute(const std::string& server_id,
                                       int64_t day_index,
                                       MinuteStamp default_start,
                                       int64_t backup_duration_minutes,
                                       const LoadSeries& true_load) const {
  BackupExecution exec;
  exec.server_id = server_id;
  exec.day_index = day_index;

  auto scheduled = properties_->GetBackupWindowStart(server_id);
  // Only honor a property that targets this backup day; a stale property
  // from a previous week must not leak into today's run.
  if (scheduled.has_value() && DayIndex(*scheduled) == day_index) {
    exec.start = *scheduled;
    exec.used_scheduled_window = true;
  } else {
    exec.start = default_start;
    exec.used_scheduled_window = false;
  }
  exec.end = exec.start + backup_duration_minutes;

  LoadSeries window = true_load.Slice(exec.start, exec.end);
  double avg = window.Mean();
  double peak = window.Max();
  exec.avg_true_load = IsMissing(avg) ? 0.0 : avg;
  exec.peak_true_load = IsMissing(peak) ? 0.0 : peak;
  exec.collided = exec.peak_true_load >= kBusyLoadPct;
  return exec;
}

}  // namespace seagull
