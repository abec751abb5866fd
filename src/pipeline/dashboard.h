/// \file dashboard.h
/// \brief Application Insights analog (§2.2): a "summarized view of the
/// pipeline runs to facilitate real-time monitoring and incident
/// management", fed from persisted run documents.

#pragma once

#include "pipeline/pipeline.h"

namespace seagull {

/// Container holding persisted run summaries.
inline constexpr const char* kRunsContainer = "pipeline_runs";

/// \brief Persists run reports and renders fleet-health summaries.
class Dashboard {
 public:
  explicit Dashboard(DocStore* docs) : docs_(docs) {}

  /// Stores one run's report and stats.
  Status Record(const PipelineContext& ctx, const PipelineRunReport& report);

  /// \brief Aggregated view over all recorded runs of a region.
  struct RegionSummary {
    std::string region;
    int64_t runs = 0;
    int64_t failures = 0;
    double avg_total_millis = 0.0;
    double last_predictable_fraction = 0.0;
    int64_t incidents = 0;
    /// Transient-failure retries spent across all recorded runs.
    int64_t retries = 0;
    /// Recorded runs that exhausted retries (quarantined by the fleet).
    int64_t quarantines = 0;
  };

  /// Summaries for every region with at least one recorded run.
  std::vector<RegionSummary> Summarize() const;

  /// Multi-line text table of `Summarize()` for terminal display.
  std::string Render() const;

 private:
  DocStore* docs_;
};

}  // namespace seagull
