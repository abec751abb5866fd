/// \file simulation.h
/// \brief End-to-end Seagull simulation driver.
///
/// Wires every subsystem the way production does: the fleet simulator
/// plays Azure telemetry, load extraction writes weekly region files into
/// the lake, the pipeline scheduler runs the AML-pipeline analog weekly
/// per region, the backup scheduler runs daily, the backup service
/// executes windows against ground truth, and the impact evaluator
/// produces the Figure 13 accounting.

#pragma once

#include <string>
#include <vector>

#include "pipeline/scheduler.h"
#include "scheduling/backup_engine.h"
#include "scheduling/backup_service.h"
#include "scheduling/impact.h"
#include "telemetry/emitter.h"

namespace seagull {

/// \brief Simulation configuration.
struct SimulationOptions {
  std::vector<RegionConfig> regions;
  std::string model_name = "persistent_prev_day";
  AccuracyConfig accuracy;
  FleetConfig fleet;
  /// Worker threads for the pipeline's parallel modules; 0 = sequential.
  int threads = 0;
};

/// \brief Per-region outcome of the simulation.
struct RegionSimulationResult {
  std::string region;
  std::vector<PipelineRunReport> runs;
  std::vector<Alert> alerts;
  int64_t backups_scheduled = 0;
  int64_t backups_moved = 0;
};

/// \brief Whole-simulation outcome.
struct SimulationResult {
  std::vector<RegionSimulationResult> regions;
  ImpactReport impact;
  CapacityReport capacity;
  /// Figure 13(a) is reported per cohort (daily-pattern servers, stable
  /// servers, busy servers); these split the impact by the generator's
  /// ground-truth archetype.
  ImpactReport impact_stable;
  ImpactReport impact_daily;
  ImpactReport impact_weekly;
  ImpactReport impact_no_pattern;
  /// Backup-engine quality-of-service accounting: every executed backup
  /// is also simulated through the contention model at both its executed
  /// window and its default window.
  struct EngineReport {
    int64_t backups = 0;
    double stretch_executed = 0.0;   ///< mean slowdown, executed windows
    double stretch_default = 0.0;    ///< mean slowdown, default windows
    double contended_executed = 0.0; ///< mean contended minutes/backup
    double contended_default = 0.0;
  };
  EngineReport engine;

  /// Rendered Application-Insights-style dashboard.
  std::string dashboard_text;
};

/// Runs the full multi-week, multi-region simulation.
Result<SimulationResult> RunSimulation(const SimulationOptions& options);

/// Builds the due-server list for one day from the fleet (servers alive
/// on the day whose weekly backup day matches). Exposed for tests.
std::vector<DueServer> DueServersForDay(const Fleet& fleet,
                                        int64_t day_index);

}  // namespace seagull
