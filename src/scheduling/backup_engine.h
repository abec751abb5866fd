/// \file backup_engine.h
/// \brief Throughput model of a full backup under customer load.
///
/// The paper's motivation is that backups colliding with customer
/// activity cause "inevitable competition for resources and poor quality
/// of service during backup windows" (§1). This engine makes that
/// competition measurable in both directions: a backup progresses at a
/// rate that shrinks as customer CPU load rises, so a backup placed in a
/// busy window both *stretches* (finishes late) and *overlaps more
/// customer activity*. The impact accounting uses it to quantify what
/// moving a backup into the lowest-load window actually buys.

#pragma once

#include "common/result.h"
#include "timeseries/series.h"

namespace seagull {

/// Backup throughput on an idle server, MB per minute.
inline constexpr double kBackupIdleThroughputMbPerMin = 100.0;
/// The backup's share of throughput at customer load L (percent) is
/// max(kBackupMinShare, (1 - L/100)^kBackupContentionExponent).
inline constexpr double kBackupContentionExponent = 1.0;
/// The backup never fully starves.
inline constexpr double kBackupMinShare = 0.15;
/// Give up when a backup runs longer than this.
inline constexpr int64_t kBackupMaxDurationMinutes = 24 * 60;

/// \brief Outcome of one simulated backup run.
struct BackupRun {
  MinuteStamp start = 0;
  /// Completion time (exclusive); start + max duration if it timed out.
  MinuteStamp end = 0;
  /// Planned duration at idle throughput.
  double planned_minutes = 0.0;
  bool completed = false;
  /// Average customer load overlapped by the running backup.
  double avg_overlapped_load = 0.0;
  /// Customer-load minutes overlapped at or above `kBusyLoadPct` (the
  /// quality-of-service damage proxy).
  double contended_minutes = 0.0;

  double actual_minutes() const {
    return static_cast<double>(end - start);
  }
  /// Slowdown factor; 1.0 means the backup ran at idle speed.
  double Stretch() const {
    return planned_minutes > 0 ? actual_minutes() / planned_minutes : 0.0;
  }
};

/// Simulates a backup of `size_mb` starting at `start` against the true
/// customer load (missing samples are treated as idle).
Result<BackupRun> SimulateBackup(const LoadSeries& true_load,
                                 MinuteStamp start, double size_mb);

/// Expected idle-speed duration of a backup, in minutes.
double PlannedMinutes(double size_mb);

}  // namespace seagull
