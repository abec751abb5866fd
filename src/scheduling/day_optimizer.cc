#include "scheduling/day_optimizer.h"

#include "metrics/ll_window.h"

namespace seagull {

Result<DayPlan> PlanBackupDay(const ModelEndpoint& endpoint,
                              const std::string& server_id,
                              const LoadSeries& recent, int64_t week,
                              DayOfWeek default_day,
                              int64_t backup_duration_minutes) {
  if (!endpoint.Serves(server_id)) {
    return Status::NotFound("endpoint has no model for " + server_id);
  }
  DayPlan plan;
  bool any = false;
  for (int64_t dow = 0; dow < 7; ++dow) {
    int64_t day = week * 7 + dow;
    MinuteStamp day_start = day * kMinutesPerDay;
    auto predicted =
        endpoint.Predict(server_id, recent, day_start, kMinutesPerDay);
    if (!predicted.ok()) continue;
    DayCandidate candidate;
    candidate.day_index = day;
    candidate.window =
        LowestLoadWindow(*predicted, day, backup_duration_minutes);
    if (!candidate.window.found) continue;
    plan.candidates.push_back(candidate);
    if (dow == static_cast<int64_t>(default_day)) {
      plan.default_day = candidate;
    }
    if (!any || candidate.window.average_load <
                    plan.chosen.window.average_load) {
      plan.chosen = candidate;
      any = true;
    }
  }
  if (!any) {
    return Status::FailedPrecondition(
        "no forecastable day in the scheduling week for " + server_id);
  }
  if (!plan.default_day.window.found) {
    // Default day could not be forecast: the cheapest day wins outright.
    plan.moved_day = plan.chosen.day_index % 7 !=
                     static_cast<int64_t>(default_day);
    return plan;
  }
  plan.predicted_saving = plan.default_day.window.average_load -
                          plan.chosen.window.average_load;
  if (plan.chosen.day_index != plan.default_day.day_index &&
      plan.predicted_saving < kMinDaySaving) {
    // Not worth the reschedule: stay on the default day.
    plan.chosen = plan.default_day;
    plan.predicted_saving = 0.0;
  }
  plan.moved_day = plan.chosen.day_index != plan.default_day.day_index;
  return plan;
}

}  // namespace seagull
