/// \file ingestion.h
/// \brief Data Ingestion module: reads the region-week extraction from
/// the lake store into per-server telemetry (§2.2, §2.4 "Data Ingestion
/// requires update of the location of input data in ADLS").

#pragma once

#include "pipeline/pipeline.h"

namespace seagull {

/// \brief Reads the region-week SGB1 extraction and decodes it per
/// server.
///
/// SGB1 is the only telemetry format: any other blob, CSV included,
/// fails with the cursor's `Invalid` status and an error incident. The
/// `SeriesBlockCursor` validates the envelope once, then decodes one
/// server at a time from column views aliasing the mapped blob, so peak
/// transient memory is O(largest single server) on top of the blob and
/// the grouped output. The module samples the process-RSS gauges at its
/// phase boundary and reports per-server amortized cost
/// (`ingestion.resident_bytes` / `ingestion.servers`).
class DataIngestionModule final : public PipelineModule {
 public:
  std::string name() const override { return "ingestion"; }
  Status Run(PipelineContext* ctx) override;
};

}  // namespace seagull
