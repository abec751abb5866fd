/// \file tracking.h
/// \brief Model Tracking module: version history and fallback (§1:
/// "Seagull continually re-evaluates accuracy of predictions, fallback
/// to previously known good models and triggers alerts as appropriate").
///
/// After accuracy evaluation, this module records the deployed version's
/// fleet-level accuracy and compares it against the previous version. A
/// significant regression flips the active pointer back to the last known
/// good version and raises an error incident.

#pragma once

#include "pipeline/pipeline.h"

namespace seagull {

/// Container holding per-version accuracy summaries.
inline constexpr const char* kVersionStatsContainer = "model_version_stats";

/// \brief Records version accuracy and falls back on regression (a drop
/// in predictable fraction beyond `kRegressionThreshold`, tracking.cc).
class ModelTrackingModule final : public PipelineModule {
 public:
  std::string name() const override { return "tracking"; }
  Status Run(PipelineContext* ctx) override;
};

}  // namespace seagull
