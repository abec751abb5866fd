#include "scheduling/simulation.h"

#include <memory>

#include "pipeline/dashboard.h"

namespace seagull {

std::vector<DueServer> DueServersForDay(const Fleet& fleet,
                                        int64_t day_index) {
  std::vector<DueServer> due;
  const MinuteStamp day_start = day_index * kMinutesPerDay;
  const MinuteStamp day_end = day_start + kMinutesPerDay;
  const int64_t week = day_index / 7;
  for (const auto& profile : fleet.servers()) {
    if (profile.backup_day != DayOfWeekOf(day_start)) continue;
    // The server must exist during the backup day.
    if (!profile.IsAliveAt(day_start) || profile.deleted_at < day_end) {
      continue;
    }
    DueServer d;
    d.server_id = profile.server_id;
    // Telemetry available at scheduling time: everything before the day.
    MinuteStamp from = std::max<MinuteStamp>(0, day_start -
                                                    4 * kMinutesPerWeek);
    d.recent_load = fleet.ObservedLoad(profile, from, day_start);
    DefaultBackupWindow(profile, week, &d.default_start, &d.default_end);
    d.backup_duration_minutes = profile.backup_duration_minutes;
    due.push_back(std::move(d));
  }
  return due;
}

Result<SimulationResult> RunSimulation(const SimulationOptions& options) {
  SimulationResult result;
  SEAGULL_ASSIGN_OR_RETURN(LakeStore lake,
                           LakeStore::OpenTemporary("simulation"));
  DocStore docs;
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 0) {
    pool = std::make_unique<ThreadPool>(options.threads);
  }

  Pipeline pipeline = Pipeline::Standard();
  PipelineScheduler scheduler(&pipeline, &lake, &docs);
  ImpactEvaluator impact(options.accuracy);
  // Cohort evaluators keyed by generator archetype (Figure 13(a) reports
  // per-cohort numbers).
  ImpactEvaluator cohort[4] = {
      ImpactEvaluator(options.accuracy), ImpactEvaluator(options.accuracy),
      ImpactEvaluator(options.accuracy), ImpactEvaluator(options.accuracy)};

  PipelineContext config;
  config.accuracy = options.accuracy;
  config.fleet = options.fleet;
  config.model_name = options.model_name;
  config.pool = pool.get();

  for (const auto& region_config : options.regions) {
    Fleet fleet = Fleet::Generate(region_config);
    RegionSimulationResult region_result;
    region_result.region = region_config.name;

    ServiceFabricProperties properties;
    BackupScheduler backup_scheduler(&docs, &properties);
    BackupService backup_service(&properties);

    const int64_t first_pipeline_week = options.fleet.long_lived_weeks - 1;
    const int64_t last_week = region_config.weeks - 1;
    for (int64_t week = first_pipeline_week; week < last_week; ++week) {
      // Load extraction (§2.2): weekly per region, written to the lake.
      SEAGULL_RETURN_NOT_OK(
          lake.Put(LakeStore::TelemetryKey(region_config.name, week),
                   ExtractWeekBlock(fleet, week)));

      // Weekly AML-pipeline run.
      auto run = scheduler.RunIfDue(region_config.name, week, config);
      region_result.runs.push_back(run.report);
      for (auto& alert : run.alerts) {
        region_result.alerts.push_back(std::move(alert));
      }
      if (!run.report.success) continue;

      // Daily online scheduling + backup execution for the next week.
      const int64_t schedule_week = week + 1;
      for (int64_t dow = 0; dow < 7; ++dow) {
        const int64_t day = schedule_week * 7 + dow;
        std::vector<DueServer> due = DueServersForDay(fleet, day);
        auto schedules =
            backup_scheduler.ScheduleDay(region_config.name, day, due);
        region_result.backups_scheduled +=
            static_cast<int64_t>(schedules.size());
        for (size_t i = 0; i < schedules.size(); ++i) {
          const ScheduledBackup& sched = schedules[i];
          if (sched.moved()) ++region_result.backups_moved;
          const ServerProfile* profile = fleet.Find(sched.server_id);
          if (profile == nullptr) continue;
          // Truth extends one day past the backup day so a stretched
          // backup can run over midnight.
          LoadSeries true_span = fleet.TrueLoad(
              *profile, day * kMinutesPerDay, (day + 2) * kMinutesPerDay);
          LoadSeries true_day =
              true_span.Slice(day * kMinutesPerDay,
                              (day + 1) * kMinutesPerDay);
          // The backup service must execute exactly the scheduled window.
          BackupExecution exec = backup_service.Execute(
              sched.server_id, day, sched.default_start,
              due[i].backup_duration_minutes, true_day);
          (void)exec;
          impact.AddBackup(sched, true_day);
          cohort[static_cast<size_t>(profile->archetype)].AddBackup(
              sched, true_day);

          // Quality-of-service accounting through the contention model.
          auto run_exec = SimulateBackup(true_span, sched.window_start,
                                         profile->database_size_mb);
          auto run_def = SimulateBackup(true_span, sched.default_start,
                                        profile->database_size_mb);
          if (run_exec.ok() && run_def.ok()) {
            ++result.engine.backups;
            result.engine.stretch_executed += run_exec->Stretch();
            result.engine.stretch_default += run_def->Stretch();
            result.engine.contended_executed += run_exec->contended_minutes;
            result.engine.contended_default += run_def->contended_minutes;
          }
        }
      }

      // Capacity accounting (Fig. 13(b)) over the scheduled week.
      for (const auto& profile : fleet.servers()) {
        MinuteStamp w_start = schedule_week * kMinutesPerWeek;
        MinuteStamp w_end = w_start + kMinutesPerWeek;
        if (!profile.IsAliveAt(w_start)) continue;
        impact.AddServerWeek(profile.server_id,
                             fleet.TrueLoad(profile, w_start, w_end));
      }
    }
    result.regions.push_back(std::move(region_result));
  }

  if (result.engine.backups > 0) {
    double n = static_cast<double>(result.engine.backups);
    result.engine.stretch_executed /= n;
    result.engine.stretch_default /= n;
    result.engine.contended_executed /= n;
    result.engine.contended_default /= n;
  }
  result.impact = impact.impact();
  result.capacity = impact.capacity();
  result.impact_stable =
      cohort[static_cast<size_t>(ServerArchetype::kStable)].impact();
  result.impact_daily =
      cohort[static_cast<size_t>(ServerArchetype::kDailyPattern)].impact();
  result.impact_weekly =
      cohort[static_cast<size_t>(ServerArchetype::kWeeklyPattern)].impact();
  result.impact_no_pattern =
      cohort[static_cast<size_t>(ServerArchetype::kNoPattern)].impact();
  Dashboard dashboard(&docs);
  result.dashboard_text = dashboard.Render() + "\n" + impact.Render();
  return result;
}

}  // namespace seagull
