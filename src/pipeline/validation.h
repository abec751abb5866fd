/// \file validation.h
/// \brief Data Validation module: schema and bound anomaly detection.
///
/// §2.2: "we implemented existing rules such as detection of schema and
/// bound anomalies". §2.4: the schema and numeric data properties are
/// auto-deduced from input data, persisted, verified by a domain expert,
/// and then enforced on later runs. This module implements that loop
/// against the lake store and additionally drops physically impossible
/// CPU values and servers with a broken backup window. The other two
/// row rules live in the SGB1 decode that ingestion runs: it rejects
/// off-grid timestamps and collapses duplicates (last write wins), so
/// `validation.dropped_grid` and `validation.duplicates` read 0.

#pragma once

#include "pipeline/pipeline.h"

namespace seagull {

/// \brief Auto-deduced data properties of one region's telemetry.
struct SchemaProperties {
  std::vector<std::string> columns;
  double cpu_min = 0.0;
  double cpu_max = 0.0;
  bool verified = false;

  Json ToJson() const;
  static Result<SchemaProperties> FromJson(const Json& doc);
};

/// \brief Validates the ingested per-server telemetry in place.
class DataValidationModule final : public PipelineModule {
 public:
  std::string name() const override { return "validation"; }
  Status Run(PipelineContext* ctx) override;

  /// Lake key of the persisted schema file for a region.
  static std::string SchemaKey(const std::string& region);
};

}  // namespace seagull
