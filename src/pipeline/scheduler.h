/// \file scheduler.h
/// \brief Pipeline Scheduler (§2.2): decides which regions are due for a
/// weekly run, drives the runs, and records them — including catch-up
/// when a region missed its cadence.

#pragma once

#include "pipeline/dashboard.h"
#include "pipeline/incidents.h"
#include "pipeline/pipeline.h"

namespace seagull {

/// \brief Weekly per-region cadence driver: "servers are due for full
/// backup at least once a week. Thus, the load extraction query runs
/// once a week per region" (§2.2).
class PipelineScheduler {
 public:
  /// `retry` governs transient-failure handling for the pipeline's
  /// modules and for the scheduler's own post-run record-keeping
  /// (dashboard + incident persistence).
  PipelineScheduler(const Pipeline* pipeline, const LakeStore* lake,
                    DocStore* docs, RetryPolicy retry = {})
      : pipeline_(pipeline), lake_(lake), docs_(docs), retry_(retry) {}

  /// Last week a region ran successfully; -1 before the first run.
  int64_t LastSuccessfulWeek(const std::string& region) const;

  /// True if the region's run for `week` is due (never ran, or its last
  /// successful run was an earlier week).
  bool IsDue(const std::string& region, int64_t week) const;

  /// \brief Outcome of one scheduled run.
  struct ScheduledRun {
    PipelineRunReport report;
    std::vector<Alert> alerts;
  };

  /// Runs the pipeline for one region-week if due (no-op report with
  /// success=true and no timings when not due). The context template
  /// supplies configuration (model family, accuracy constants, pool).
  ScheduledRun RunIfDue(const std::string& region, int64_t week,
                        const PipelineContext& config_template);

 private:
  const Pipeline* pipeline_;
  const LakeStore* lake_;
  DocStore* docs_;
  RetryPolicy retry_;
};

}  // namespace seagull
