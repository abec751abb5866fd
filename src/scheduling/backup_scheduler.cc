#include "scheduling/backup_scheduler.h"

#include "common/strings.h"
#include "metrics/ll_window.h"

namespace seagull {

const char* ScheduleDecisionName(ScheduleDecision d) {
  switch (d) {
    case ScheduleDecision::kScheduledLowLoad:
      return "scheduled_low_load";
    case ScheduleDecision::kDefaultNotPredictable:
      return "default_not_predictable";
    case ScheduleDecision::kDefaultNoHistory:
      return "default_no_history";
    case ScheduleDecision::kDefaultForecastFailed:
      return "default_forecast_failed";
  }
  return "unknown";
}

std::vector<ScheduledBackup> BackupScheduler::ScheduleDay(
    const std::string& region, int64_t day_index,
    const std::vector<DueServer>& due_servers) {
  std::vector<ScheduledBackup> out;
  out.reserve(due_servers.size());

  // The accuracy documents of the week containing this day.
  const int64_t week = day_index / 7;
  auto endpoint = LoadActiveEndpoint(docs_, region);

  for (const auto& due : due_servers) {
    ScheduledBackup sched;
    sched.server_id = due.server_id;
    sched.day_index = day_index;
    sched.default_start = due.default_start;
    sched.default_end = due.default_end;
    // Fall back to the default window unless every gate passes.
    sched.window_start = due.default_start;
    sched.window_end = due.default_end;

    Container* container = docs_->GetContainer(kAccuracyContainer);
    auto acc_doc = container->Get(
        region, StringPrintf("w%04lld:%s", static_cast<long long>(week),
                             due.server_id.c_str()));
    if (!acc_doc.ok()) {
      sched.decision = ScheduleDecision::kDefaultNoHistory;
      properties_->Clear(due.server_id, kBackupWindowProperty);
      out.push_back(sched);
      continue;
    }
    if (!acc_doc->body.GetBool("predictable").ValueOr(false)) {
      sched.decision = ScheduleDecision::kDefaultNotPredictable;
      properties_->Clear(due.server_id, kBackupWindowProperty);
      out.push_back(sched);
      continue;
    }
    if (!endpoint.ok() || !endpoint->Serves(due.server_id)) {
      sched.decision = ScheduleDecision::kDefaultForecastFailed;
      properties_->Clear(due.server_id, kBackupWindowProperty);
      out.push_back(sched);
      continue;
    }
    // Query the endpoint live with telemetry through yesterday: predict
    // tomorrow and pick its lowest-load window (Definition 7).
    MinuteStamp day_start = day_index * kMinutesPerDay;
    auto predicted = endpoint->Predict(due.server_id, due.recent_load,
                                       day_start, kMinutesPerDay);
    WindowResult window;
    if (predicted.ok()) {
      window = LowestLoadWindow(*predicted, day_index,
                                due.backup_duration_minutes);
    }
    if (!window.found) {
      sched.decision = ScheduleDecision::kDefaultForecastFailed;
      properties_->Clear(due.server_id, kBackupWindowProperty);
      out.push_back(sched);
      continue;
    }

    sched.decision = ScheduleDecision::kScheduledLowLoad;
    sched.window_start = window.start;
    sched.window_end = window.start + due.backup_duration_minutes;
    properties_->SetBackupWindowStart(due.server_id, window.start);
    out.push_back(sched);
  }
  return out;
}

}  // namespace seagull
