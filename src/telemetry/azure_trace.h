/// \file azure_trace.h
/// \brief Adapter for the Azure Public Dataset VM trace format.
///
/// Downstream users with real traces do not have the paper's internal
/// telemetry, but Microsoft publishes VM CPU readings in the Azure
/// Public Dataset (`vmtable`/`vm_cpu_readings`) as rows of
/// `timestamp,vm_id,min_cpu,max_cpu,avg_cpu` with timestamps in seconds
/// at a 300-second cadence. This adapter transcodes that format into an
/// SGB1 blob, the lake's one telemetry format, so the whole pipeline —
/// classification, forecasting, scheduling — runs on real data
/// unchanged. It is a transcoder like `seagull transcode`: trace rows
/// exist only while the text is parsed, and callers that want grouped
/// servers decode the blob with `DecodeTelemetryBlob`.

#pragma once

#include <string>
#include <string_view>

#include "common/result.h"

namespace seagull {

/// Transcodes Azure-Public-Dataset-style CSV text
/// (`timestamp,vm_id,min_cpu,max_cpu,avg_cpu`, header optional,
/// timestamps in seconds since trace start, 300 s cadence) into one SGB1
/// blob on the 5-minute grid, through `EncodeSeriesBlock`: one directory
/// entry per VM, values quantized like every SGB1 value. Rows whose
/// avg_cpu lies outside [0, 100] are dropped (the public trace
/// normalizes utilization to percent; stray rows exist). The trace has
/// no backup metadata, so every VM gets a 60-minute default window at
/// 02:00 of its first day.
Result<std::string> ImportAzureVmTrace(std::string_view text);

}  // namespace seagull
