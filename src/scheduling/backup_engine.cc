#include "scheduling/backup_engine.h"

#include <algorithm>
#include <cmath>

#include "common/config.h"

namespace seagull {

double PlannedMinutes(double size_mb) {
  return size_mb / kBackupIdleThroughputMbPerMin;
}

Result<BackupRun> SimulateBackup(const LoadSeries& true_load,
                                 MinuteStamp start, double size_mb) {
  if (size_mb <= 0) return Status::Invalid("backup size must be positive");
  const int64_t interval = true_load.interval_minutes();
  if (start % interval != 0) {
    return Status::Invalid("backup start must be grid-aligned");
  }

  BackupRun run;
  run.start = start;
  run.planned_minutes = PlannedMinutes(size_mb);

  double remaining_mb = size_mb;
  double load_sum = 0.0;
  MinuteStamp t = start;
  const MinuteStamp deadline = start + kBackupMaxDurationMinutes;
  while (remaining_mb > 0 && t < deadline) {
    double load = true_load.ValueAtTime(t);
    if (IsMissing(load)) load = 0.0;  // no telemetry = assume idle
    double share = std::pow(std::max(0.0, 1.0 - load / 100.0),
                            kBackupContentionExponent);
    share = std::max(share, kBackupMinShare);
    double rate = kBackupIdleThroughputMbPerMin * share;

    double tick_minutes = static_cast<double>(interval);
    double produced = rate * tick_minutes;
    if (produced >= remaining_mb) {
      // Finishes mid-tick; charge only the used fraction.
      tick_minutes = remaining_mb / rate;
      remaining_mb = 0.0;
    } else {
      remaining_mb -= produced;
    }
    load_sum += load * tick_minutes;
    if (load >= kBusyLoadPct) run.contended_minutes += tick_minutes;
    if (remaining_mb <= 0) {
      // Round the end up to the next grid point the backup touched.
      run.end = t + static_cast<MinuteStamp>(std::ceil(tick_minutes));
      run.completed = true;
      break;
    }
    t += interval;
  }
  if (!run.completed) run.end = deadline;
  double total_minutes = run.actual_minutes();
  run.avg_overlapped_load =
      total_minutes > 0 ? load_sum / total_minutes : 0.0;
  return run;
}

}  // namespace seagull
