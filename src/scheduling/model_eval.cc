#include "scheduling/model_eval.h"

#include <algorithm>
#include <chrono>

#include "forecast/model.h"
#include "metrics/ll_window.h"

namespace seagull {

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

double ModelEvalResult::PctWindowsCorrect() const {
  return server_days == 0 ? 0.0
                          : 100.0 * static_cast<double>(windows_correct) /
                                static_cast<double>(server_days);
}

double ModelEvalResult::PctLoadsAccurate() const {
  return server_days == 0 ? 0.0
                          : 100.0 * static_cast<double>(loads_accurate) /
                                static_cast<double>(server_days);
}

double ModelEvalResult::PctPredictable() const {
  return servers == 0 ? 0.0
                      : 100.0 * static_cast<double>(predictable) /
                            static_cast<double>(servers);
}

ServerFilter FilterLongLived() {
  return [](const ServerProfile& p) { return !p.IsShortLived(); };
}

ServerFilter FilterStableOrPattern() {
  return [](const ServerProfile& p) {
    return !p.IsShortLived() &&
           (p.archetype == ServerArchetype::kStable ||
            p.archetype == ServerArchetype::kDailyPattern ||
            p.archetype == ServerArchetype::kWeeklyPattern);
  };
}

ServerFilter FilterUnstableNoPattern() {
  return [](const ServerProfile& p) {
    return !p.IsShortLived() &&
           p.archetype == ServerArchetype::kNoPattern;
  };
}

Result<ModelEvalResult> EvaluateModelOnFleet(
    const Fleet& fleet, const std::string& model_name,
    const ModelEvalOptions& options) {
  ModelEvalResult result;
  result.model = model_name;
  SEAGULL_ASSIGN_OR_RETURN(auto probe,
                           ModelFactory::Global().Create(model_name));
  const bool trains = probe->requires_training();
  const int64_t weeks = options.fleet_config.long_lived_weeks;
  const int64_t min_history_ticks =
      options.fleet_config.min_history_days * kMinutesPerDay /
      kServerIntervalMinutes;

  for (const auto& profile : fleet.servers()) {
    if (options.filter && !options.filter(profile)) continue;
    if (!options.filter && profile.IsShortLived()) continue;
    if (options.max_servers > 0 && result.servers >= options.max_servers) {
      break;
    }

    MinuteStamp obs_end = (options.target_week) * kMinutesPerWeek;
    LoadSeries observed = fleet.ObservedLoad(
        profile, std::max<MinuteStamp>(0, obs_end - 4 * kMinutesPerWeek),
        obs_end);
    if (observed.CountPresent() < min_history_ticks) continue;

    bool all_good = true;
    int64_t evaluated_days = 0;
    for (int64_t w = options.target_week - weeks; w < options.target_week;
         ++w) {
      int64_t day = w * 7 + static_cast<int64_t>(profile.backup_day);
      MinuteStamp day_start = day * kMinutesPerDay;
      if (day_start - kMinutesPerWeek < profile.created_at) {
        // Not enough history before this backup day to train on.
        all_good = false;
        continue;
      }

      SEAGULL_ASSIGN_OR_RETURN(auto model,
                               ModelFactory::Global().Create(model_name));
      if (trains) {
        LoadSeries train =
            observed.Slice(day_start - kMinutesPerWeek, day_start);
        if (train.CountPresent() < min_history_ticks) {
          all_good = false;
          continue;
        }
        auto t0 = std::chrono::steady_clock::now();
        Status fit = model->Fit(train);
        result.train_millis += MillisSince(t0);
        if (!fit.ok()) {
          all_good = false;
          continue;
        }
      }

      LoadSeries recent = observed.Slice(observed.start(), day_start);
      auto t1 = std::chrono::steady_clock::now();
      auto predicted = model->Forecast(recent, day_start, kMinutesPerDay);
      result.inference_millis += MillisSince(t1);
      if (!predicted.ok()) {
        all_good = false;
        continue;
      }

      auto t2 = std::chrono::steady_clock::now();
      LowLoadEvaluation eval =
          EvaluateLowLoad(*predicted, observed, day,
                          profile.backup_duration_minutes, options.accuracy);
      result.eval_millis += MillisSince(t2);
      if (!eval.evaluable) {
        all_good = false;
        continue;
      }
      ++evaluated_days;
      ++result.server_days;
      if (eval.window_correct) ++result.windows_correct;
      if (eval.load_accurate) ++result.loads_accurate;
      if (!eval.window_correct || !eval.load_accurate) all_good = false;
    }
    if (evaluated_days == 0) continue;
    ++result.servers;
    if (all_good && evaluated_days == weeks) ++result.predictable;
  }
  return result;
}

}  // namespace seagull
