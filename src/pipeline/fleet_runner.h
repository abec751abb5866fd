/// \file fleet_runner.h
/// \brief Parallel fleet execution engine (§2.1, §6.1, Fig. 12b).
///
/// The paper runs the AML pipeline partition-per-server on Dask across
/// 70+ regions. `FleetRunner` is that orchestration layer: it executes
/// many per-region `Pipeline` instances concurrently on one work-stealing
/// `ThreadPool` and fans per-server work (training, inference, accuracy
/// evaluation) into the same pool via nested `ParallelFor` — the pool's
/// caller-participation makes the nesting deadlock-free.
///
/// Determinism contract: given the same lake contents, document-store
/// state, and configuration, a run with `jobs = 1` and a run with any
/// `jobs > 1` produce byte-identical document-store snapshots, forecasts,
/// and low-load window choices. This holds because (a) regions write
/// only to their own partitions of the sorted-map document store, (b)
/// per-server loop bodies write only state owned by their index and all
/// reductions happen sequentially after each loop, and (c) model fitting
/// seeds its RNGs from configuration, never from global state. The
/// contract is enforced by tests/fleet_determinism_test.cc.
///
/// Memory plane: `Run` holds every job's results until it returns, so a
/// bounded-RSS driver passes one shard of regions per call and digests
/// and `DocStore::DropPartition`s them before staging the next shard
/// (`fig12b_parallel --servers`).

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "pipeline/scheduler.h"

namespace seagull {

/// \brief One region-week the fleet should execute.
struct FleetJob {
  std::string region;
  int64_t week = 0;
};

/// \brief Fleet execution knobs.
struct FleetOptions {
  /// Concurrent region pipelines; <= 1 runs strictly sequentially on
  /// the calling thread (the Fig. 12b reference mode). Per-server
  /// fan-out inside each pipeline shares the same pool.
  int jobs = 1;
  /// Transient-failure policy for every region's modules and
  /// record-keeping (see `PipelineScheduler`).
  RetryPolicy retry;
};

/// \brief One region removed from the healthy fleet this run: its
/// pipeline kept failing on transient errors after the retry budget.
struct QuarantinedRegion {
  std::string region;
  int64_t week = 0;
  std::string reason;  ///< the exhausted module's failure text
};

/// \brief Aggregated outcome of one fleet execution, in job order.
struct FleetRunResult {
  std::vector<PipelineScheduler::ScheduledRun> runs;
  /// Regions whose runs exhausted retries, in job order. Quarantine is
  /// graceful degradation, not fleet failure: every other region's run
  /// (and its backup scheduling inputs) completes normally, and a
  /// `region_quarantined` incident + alert is recorded for on-call.
  std::vector<QuarantinedRegion> quarantined;
  double wall_millis = 0.0;
  int jobs = 1;

  int64_t SuccessCount() const;
  int64_t FailureCount() const;
  /// Transient-failure retries spent across every run.
  int64_t TotalRetries() const;
  /// Alerts of every run, concatenated in job order.
  std::vector<Alert> AllAlerts() const;
};

/// \brief Runs a fleet of per-region pipelines concurrently.
class FleetRunner {
 public:
  /// Builds one pipeline per region run; must be safe to call from any
  /// thread. Defaults to `Pipeline::Standard`. Each job gets its own
  /// instance because modules are not required to be re-entrant.
  using PipelineFactory = std::function<Pipeline()>;

  FleetRunner(const LakeStore* lake, DocStore* docs,
              FleetOptions options = {},
              PipelineFactory factory = &Pipeline::Standard);

  /// Executes every due job, fanning regions across `options.jobs`
  /// workers. The context template supplies configuration (model family,
  /// accuracy constants). With jobs > 1 the runner installs its own pool
  /// so region- and server-level parallelism share one set of workers;
  /// with jobs <= 1 the template's pool (if any) drives per-server
  /// fan-out alone.
  FleetRunResult Run(const std::vector<FleetJob>& jobs,
                     const PipelineContext& config_template);

 private:
  const LakeStore* lake_;
  DocStore* docs_;
  FleetOptions options_;
  PipelineFactory factory_;
};

}  // namespace seagull
