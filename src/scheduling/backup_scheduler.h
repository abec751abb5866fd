/// \file backup_scheduler.h
/// \brief The backup scheduling algorithm (§2.3) — the use-case-specific
/// online component.
///
/// Runs daily (inside the MDS runner in production). For every server due
/// for a full backup the next day it checks the three-week predictability
/// verdict produced by the pipeline; for predictable servers it queries
/// the model endpoint for the next day's load, picks the lowest-load
/// window long enough for a full backup, and publishes the window start
/// as a service-fabric property. Unpredictable or too-young servers keep
/// their default window.

#pragma once

#include <functional>
#include <vector>

#include "pipeline/accuracy.h"
#include "pipeline/deployment.h"
#include "scheduling/service_fabric.h"

namespace seagull {

/// \brief Why a server ended up on its window.
enum class ScheduleDecision : int8_t {
  /// Predictable; moved onto the predicted LL window.
  kScheduledLowLoad = 0,
  /// Not predictable for three weeks; default window kept (§2.3).
  kDefaultNotPredictable = 1,
  /// Too young / absent from accuracy records; default window kept.
  kDefaultNoHistory = 2,
  /// Endpoint could not produce a usable forecast; default kept.
  kDefaultForecastFailed = 3,
};

const char* ScheduleDecisionName(ScheduleDecision d);

/// \brief One scheduled backup for one server-day.
struct ScheduledBackup {
  std::string server_id;
  int64_t day_index = 0;
  MinuteStamp window_start = 0;
  MinuteStamp window_end = 0;
  MinuteStamp default_start = 0;
  MinuteStamp default_end = 0;
  ScheduleDecision decision = ScheduleDecision::kDefaultNoHistory;

  bool moved() const {
    return decision == ScheduleDecision::kScheduledLowLoad &&
           window_start != default_start;
  }
};

/// \brief Inputs describing one server due for backup tomorrow.
struct DueServer {
  std::string server_id;
  /// Telemetry available at scheduling time (up to the end of today).
  LoadSeries recent_load;
  MinuteStamp default_start = 0;
  MinuteStamp default_end = 0;
  int64_t backup_duration_minutes = 0;
};

/// \brief The daily scheduling pass.
class BackupScheduler {
 public:
  BackupScheduler(DocStore* docs, ServiceFabricProperties* properties)
      : docs_(docs), properties_(properties) {}

  /// Schedules every due server for `day_index` using the region's
  /// active endpoint and the accuracy documents of the covering week.
  std::vector<ScheduledBackup> ScheduleDay(
      const std::string& region, int64_t day_index,
      const std::vector<DueServer>& due_servers);

 private:
  DocStore* docs_;
  ServiceFabricProperties* properties_;
};

}  // namespace seagull
