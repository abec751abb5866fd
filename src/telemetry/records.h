/// \file records.h
/// \brief Telemetry record schema, its CSV interchange codec, and
/// per-server grouping.
///
/// A telemetry row is: server identifier, timestamp in minutes, average
/// user CPU load percentage per five minutes, and the default backup
/// start/end timestamps (§5.3.1). The lake stores rows as SGB1
/// (series_block.h); CSV is the interchange text `seagull transcode`
/// reads and writes.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "timeseries/series.h"

namespace seagull {

/// \brief One telemetry row, exactly the paper's CSV schema.
struct TelemetryRecord {
  std::string server_id;
  MinuteStamp timestamp = 0;
  double avg_cpu = 0.0;
  MinuteStamp default_backup_start = 0;
  MinuteStamp default_backup_end = 0;
};

/// \brief All telemetry of one server within one extraction, grouped.
struct ServerTelemetry {
  std::string server_id;
  LoadSeries load;
  MinuteStamp default_backup_start = 0;
  MinuteStamp default_backup_end = 0;

  int64_t backup_duration_minutes() const {
    return default_backup_end - default_backup_start;
  }
};

/// Column names of the telemetry schema, in order (also the CSV header).
extern const char* const kTelemetryColumns[5];

/// Streaming writer: serializes rows straight to CSV text. Telemetry
/// fields never need quoting, so this avoids materializing a string
/// table for multi-million-row extractions.
std::string RecordsToCsvText(const std::vector<TelemetryRecord>& records);

/// Streaming parser: the inverse of `RecordsToCsvText`. Validates the
/// header and field count per line. Takes a view so lake readers parse
/// the mapped blob in place instead of copying the extraction first.
Result<std::vector<TelemetryRecord>> ParseTelemetryCsv(
    std::string_view text);

/// Resident footprint of one grouped server (id + samples), the unit
/// the fleet memory plane budgets ingest by.
int64_t ApproxTelemetryBytes(const ServerTelemetry& server);

/// Groups rows by server into aligned load series. Rows may arrive in any
/// order; duplicate (server, timestamp) rows keep the last value.
Result<std::vector<ServerTelemetry>> GroupByServer(
    const std::vector<TelemetryRecord>& records,
    int64_t interval_minutes = kServerIntervalMinutes);

}  // namespace seagull
