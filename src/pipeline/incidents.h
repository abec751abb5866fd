/// \file incidents.h
/// \brief Incident Management (§2.2): persists incidents, evaluates alert
/// rules, and summarizes what needs human attention.
///
/// Runs after each pipeline run ("Model Tracking, Pipeline Scheduler, and
/// Incident Management run concurrently with other components and do not
/// block the flow of data through the AML pipeline", §6.1) — so it is a
/// post-run processor, not a `PipelineModule`.

#pragma once

#include "pipeline/pipeline.h"

namespace seagull {

/// Container holding persisted incidents.
inline constexpr const char* kIncidentContainer = "incidents";

/// \brief One alert raised toward on-call.
struct Alert {
  std::string region;
  int64_t week = 0;
  std::string rule;
  std::string message;
};

/// Alert when more than this many warnings accumulate in one run.
inline constexpr int64_t kWarningFloodThreshold = 10;

/// \brief Processes the incidents of finished runs. Every error-severity
/// incident alerts (`error_incident`), more than `kWarningFloodThreshold`
/// warnings in one run alert once (`warning_flood`), and a failed run
/// alerts (`run_failed`).
class IncidentManager {
 public:
  /// `retry` absorbs transient document-store faults while persisting;
  /// an incident whose write exhausts retries is dropped with an error
  /// log (never a crash) — mirroring production, where the telemetry
  /// path must not take down the pipeline it reports on.
  explicit IncidentManager(DocStore* docs, RetryPolicy retry = {})
      : docs_(docs), retry_(retry) {}

  /// Persists the run's incidents and returns the alerts its rules fire.
  std::vector<Alert> Process(const PipelineContext& ctx,
                             const PipelineRunReport& report);

  /// All persisted incidents of a region, ordered by id.
  std::vector<Document> History(const std::string& region) const;

 private:
  DocStore* docs_;
  RetryPolicy retry_;
  int64_t sequence_ = 0;
};

const char* IncidentSeverityName(IncidentSeverity severity);

}  // namespace seagull
