#include "scheduling/impact.h"

#include <algorithm>

#include "common/strings.h"
#include "metrics/ll_window.h"

namespace seagull {

namespace {

/// Fig. 13(b): a weekly max CPU at or above this counts as at capacity.
constexpr double kCapacityPct = 99.5;

}  // namespace

double ImpactReport::FractionMoved() const {
  return backups == 0 ? 0.0
                      : static_cast<double>(moved_to_ll) /
                            static_cast<double>(backups);
}

double ImpactReport::FractionDefaultLl() const {
  return backups == 0 ? 0.0
                      : static_cast<double>(default_already_ll) /
                            static_cast<double>(backups);
}

double ImpactReport::FractionIncorrect() const {
  return backups == 0 ? 0.0
                      : static_cast<double>(incorrect) /
                            static_cast<double>(backups);
}

double ImpactReport::BusyCollisionsAvoided() const {
  if (busy_default_collisions == 0) return 0.0;
  return static_cast<double>(busy_default_collisions -
                             busy_executed_collisions) /
         static_cast<double>(busy_default_collisions);
}

double CapacityReport::FractionAtCapacity() const {
  return servers == 0 ? 0.0
                      : static_cast<double>(at_capacity) /
                            static_cast<double>(servers);
}

BackupPlacement ImpactEvaluator::AddBackup(const ScheduledBackup& backup,
                                           const LoadSeries& true_load) {
  BackupPlacement p;
  p.server_id = backup.server_id;
  p.day_index = backup.day_index;
  p.decision = backup.decision;
  p.moved = backup.moved();

  const int64_t duration = backup.window_end - backup.window_start;
  WindowResult ll = LowestLoadWindow(true_load, backup.day_index, duration);
  double avg_exec =
      true_load.MeanInRange(backup.window_start, backup.window_end);
  double avg_def =
      true_load.MeanInRange(backup.default_start, backup.default_end);
  p.avg_true_executed = IsMissing(avg_exec) ? 0.0 : avg_exec;
  p.avg_true_default = IsMissing(avg_def) ? 0.0 : avg_def;
  p.avg_true_ll = ll.found ? ll.average_load : 0.0;
  if (ll.found) {
    p.executed_is_ll =
        p.avg_true_executed - p.avg_true_ll <= accuracy_.window_tolerance;
    p.default_is_ll =
        p.avg_true_default - p.avg_true_ll <= accuracy_.window_tolerance;
  }

  ++impact_.backups;
  if (!p.executed_is_ll) {
    ++impact_.incorrect;
  } else if (p.moved && !p.default_is_ll) {
    ++impact_.moved_to_ll;
    impact_.improved_minutes += static_cast<double>(duration);
  } else if (p.default_is_ll) {
    ++impact_.default_already_ll;
  } else {
    ++impact_.moved_neutral;
  }

  // Busy cohort: the day saw customer load above the busy threshold. A
  // window "collides with a peak of customer activity" when any load in
  // it exceeds that threshold — placement inside the day's valleys is
  // exactly what the scheduler can influence.
  double day_peak =
      true_load
          .Slice(backup.day_index * kMinutesPerDay,
                 (backup.day_index + 1) * kMinutesPerDay)
          .Max();
  if (!IsMissing(day_peak) && day_peak >= kBusyLoadPct) {
    ++impact_.busy_backups;
    double peak_default =
        true_load.Slice(backup.default_start, backup.default_end).Max();
    double peak_exec =
        true_load.Slice(backup.window_start, backup.window_end).Max();
    if (!IsMissing(peak_default) && peak_default >= kBusyLoadPct) {
      ++impact_.busy_default_collisions;
    }
    if (!IsMissing(peak_exec) && peak_exec >= kBusyLoadPct) {
      ++impact_.busy_executed_collisions;
    }
  }
  return p;
}

void ImpactEvaluator::AddServerWeek(const std::string& server_id,
                                    const LoadSeries& true_week_load) {
  (void)server_id;
  double peak = true_week_load.Max();
  if (IsMissing(peak)) return;
  ++capacity_.servers;
  int bucket = std::clamp(static_cast<int>(peak / 10.0), 0, 9);
  ++capacity_.histogram[static_cast<size_t>(bucket)];
  if (peak >= kCapacityPct) ++capacity_.at_capacity;
}

std::string ImpactEvaluator::Render() const {
  std::string out;
  out += StringPrintf(
      "Backups: %lld | moved-to-LL %.1f%% | default-already-LL %.1f%% | "
      "incorrect %.1f%% | moved-neutral %lld | improved hours %.1f\n",
      static_cast<long long>(impact_.backups),
      100.0 * impact_.FractionMoved(), 100.0 * impact_.FractionDefaultLl(),
      100.0 * impact_.FractionIncorrect(),
      static_cast<long long>(impact_.moved_neutral),
      impact_.improved_minutes / 60.0);
  out += StringPrintf(
      "Busy cohort: %lld backups | default collisions %lld | executed "
      "collisions %lld | avoided %.1f%%\n",
      static_cast<long long>(impact_.busy_backups),
      static_cast<long long>(impact_.busy_default_collisions),
      static_cast<long long>(impact_.busy_executed_collisions),
      100.0 * impact_.BusyCollisionsAvoided());
  out += StringPrintf("Capacity: %lld servers | at capacity %.1f%%\n",
                      static_cast<long long>(capacity_.servers),
                      100.0 * capacity_.FractionAtCapacity());
  for (size_t k = 0; k < capacity_.histogram.size(); ++k) {
    out += StringPrintf("  max CPU %3zu-%3zu%%: %lld\n", k * 10, k * 10 + 10,
                        static_cast<long long>(capacity_.histogram[k]));
  }
  return out;
}

}  // namespace seagull
