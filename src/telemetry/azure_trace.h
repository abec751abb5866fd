/// \file azure_trace.h
/// \brief Adapter for the Azure Public Dataset VM trace format.
///
/// Downstream users with real traces do not have the paper's internal
/// telemetry, but Microsoft publishes VM CPU readings in the Azure
/// Public Dataset (`vmtable`/`vm_cpu_readings`) as rows of
/// `timestamp,vm_id,min_cpu,max_cpu,avg_cpu` with timestamps in seconds
/// at a 300-second cadence. This adapter converts that format into the
/// library's `ServerTelemetry` so the whole pipeline — classification,
/// forecasting, scheduling — runs on real data unchanged. This is the
/// trace's own CSV, parsed here and nowhere else; the lake itself holds
/// SGB1 only.

#pragma once

#include <string>
#include <vector>

#include "telemetry/records.h"

namespace seagull {

/// Parses Azure-Public-Dataset-style CSV text
/// (`timestamp,vm_id,min_cpu,max_cpu,avg_cpu`, header optional,
/// timestamps in seconds since trace start, 300 s cadence) into grouped
/// per-server telemetry on the 5-minute grid. Rows whose avg_cpu lies
/// outside [0, 100] are dropped (the public trace normalizes utilization
/// to percent; stray rows exist). The trace has no backup metadata, so
/// every server gets a 60-minute default window at 02:00 of its first
/// day.
Result<std::vector<ServerTelemetry>> ImportAzureVmTrace(
    const std::string& text);

/// Exports grouped telemetry as an SGB1 blob, the lake's telemetry
/// format (e.g. to stage an imported trace for the pipeline).
std::string ExportToSeriesBlock(const std::vector<ServerTelemetry>& servers);

}  // namespace seagull
