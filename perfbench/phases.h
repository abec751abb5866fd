/// \file phases.h
/// \brief The two phases every workload runs: the weekly fleet cycle
/// (pipeline chain + the next week's backup scheduling) and open-loop
/// serving of forecasts.

#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "pipeline/fleet_runner.h"
#include "scheduling/backup_scheduler.h"
#include "serving/engine.h"
#include "store/lake_store.h"
#include "telemetry/fleet.h"

namespace perfbench {

/// Wall time of each set-up step, milliseconds.
struct SetupTimes {
  double generate_ms = 0.0;
  double stage_ms = 0.0;
  double bootstrap_ms = 0.0;
  double first_tick_ms = 0.0;
  double TotalMs() const {
    return generate_ms + stage_ms + bootstrap_ms + first_tick_ms;
  }
};

/// Pipeline week every region runs; its accuracy documents cover the
/// following week, whose seven days the scheduler then plans.
inline constexpr int64_t kPipelineWeek = 3;
inline constexpr int64_t kFleetWeeks = 5;

/// The weekly fleet cycle over SGB1-staged regions.
class FleetPhase {
 public:
  FleetPhase(const FleetSpec& spec, uint64_t seed, std::string lake_dir,
             int jobs, SpanLog* spans);
  ~FleetPhase();

  /// Generates the regions, stages their SGB1 blobs, builds the due
  /// lists, and pre-warms the lake. Safe to repeat; each call replaces
  /// the previous inputs with identical ones.
  void Setup(SetupTimes* times);

  /// Runs the untimed jobs=1 reference through the plain standard chain
  /// and checks the chain-drift guard.
  void RunReference(Report* report);

  /// Runs timed iterations at the configured job count for about
  /// `seconds` (at least one), checking each against the reference.
  void RunIterations(double seconds, Report* report);

  /// Adds the fleet metrics over every iteration run so far.
  void Finish(Report* report);

  int64_t servers() const;

 private:
  struct Iteration;
  Iteration RunOnce(int jobs, bool wrapped);

  FleetSpec spec_;
  uint64_t seed_;
  std::string lake_dir_;
  int jobs_;
  SpanLog* spans_;
  std::optional<seagull::LakeStore> lake_;
  std::vector<seagull::Fleet> fleets_;
  std::vector<seagull::FleetJob> fleet_jobs_;
  /// due_[region][day of the scheduled week]
  std::vector<std::array<std::vector<seagull::DueServer>, 7>> due_;
  /// Folds one byte per staged page, so pre-warm reads are not elided.
  uint64_t prewarm_sum_ = 0;
  std::unique_ptr<Iteration> reference_;
  std::vector<Iteration> runs_;
};

/// Open-loop serving of the workload's servers.
class ServePhase {
 public:
  ServePhase(const ServeSpec& spec, uint64_t seed, int workers,
             SpanLog* spans);
  ~ServePhase();

  /// Generates the serving region, cuts one-week tails for its servers
  /// alive through the following week, bootstraps a fresh engine, and
  /// runs its first full refit.
  void Setup(SetupTimes* times);

  /// One slice at each fixed rate, `low` then `high`, in about
  /// `seconds`.
  void RunFixedRates(double seconds, Report* report);

  /// Measures capacity in a closed loop for `capacity_seconds`, then
  /// walks the `max_rps` staircase, `probe_seconds` per rate. Each call
  /// continues the staircase where the previous one stopped.
  void RunLadder(double capacity_seconds, double probe_seconds,
                 Report* report);

  /// Adds the serving metrics over every slice run so far.
  void Finish(Report* report);

 private:
  struct PhaseStats;
  /// Open loop at `rps`, or with `closed` every request due at once
  /// (`rps` then only sizes the schedule).
  PhaseStats RunAtRate(double rps, double seconds, uint64_t schedule_seed,
                       Report* report, bool closed = false);

  ServeSpec spec_;
  uint64_t seed_;
  int workers_;
  SpanLog* spans_;
  std::vector<std::string> ids_;
  std::unique_ptr<seagull::ServingEngine> engine_;
  /// Stamp the next phase's ingests start from (tails grow through
  /// ingests, one 5-minute epoch per tick).
  seagull::MinuteStamp next_epoch_start_ = 0;
  std::unique_ptr<PhaseStats> low_, high_;
  int slices_ = 0;
  std::vector<double> capacity_rps_;  ///< one per ladder walk
  std::vector<double> ladder_rates_;  ///< every staircase probe, in order
  int64_t ladder_met_ = 0;            ///< probes that met the limit
  int rung_ = 0;                      ///< the staircase's next rung
  int64_t ladder_no_window_ = 0;
};

}  // namespace perfbench
