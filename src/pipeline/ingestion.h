/// \file ingestion.h
/// \brief Data Ingestion module: reads the region-week extraction from
/// the lake store into telemetry records (§2.2, §2.4 "Data Ingestion
/// requires update of the location of input data in ADLS").

#pragma once

#include "pipeline/pipeline.h"

namespace seagull {

/// \brief Reads the region-week extraction and parses it.
///
/// Two wire formats share the module. CSV is parsed to flat records
/// (validation groups them). A binary `SeriesBlock` goes through the
/// streaming `SeriesBlockCursor`: the envelope is validated once, then
/// servers are decoded one at a time from column views aliasing the
/// mapped blob — peak transient memory is O(largest single server)
/// on top of the blob and the grouped output, instead of the old
/// O(total_samples) column scratch. The module samples the process-RSS
/// gauges at its phase boundary and reports per-server amortized cost
/// (`ingestion.resident_bytes` / `ingestion.servers`).
class DataIngestionModule final : public PipelineModule {
 public:
  std::string name() const override { return "ingestion"; }
  Status Run(PipelineContext* ctx) override;
};

}  // namespace seagull
