/// \file inference.h
/// \brief Inference module (§2.2, Figure 1).
///
/// "The pipeline ... performs inference ... Results are stored in Cosmos
/// DB ... the predictions are input to the backup scheduling algorithm."
/// After deployment, this module forecasts the scheduling week for every
/// server through the freshly activated endpoint and materializes each
/// day's *predicted lowest-load window* into the document store — the
/// week's compact forecast record. The daily `BackupScheduler` does not
/// read it: it queries the endpoint live with telemetry through
/// yesterday (§2.3).

#pragma once

#include "pipeline/pipeline.h"

namespace seagull {

/// Container holding per-(server, day) predicted LL windows.
inline constexpr const char* kPredictionsContainer = "predictions";

/// \brief Materializes next-week predicted LL windows per server.
class InferenceModule final : public PipelineModule {
 public:
  std::string name() const override { return "inference"; }
  Status Run(PipelineContext* ctx) override;

  /// Document id of one (day, server) prediction.
  static std::string PredictionId(int64_t day_index,
                                  const std::string& server_id);
};

}  // namespace seagull
