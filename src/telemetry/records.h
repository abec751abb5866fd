/// \file records.h
/// \brief Telemetry record schema, the grouped per-server form, and the
/// CSV interchange codec.
///
/// A telemetry row is: server identifier, timestamp in minutes, average
/// user CPU load percentage per five minutes, and the default backup
/// start/end timestamps (§5.3.1). Rows exist only at the CSV edge: where
/// CSV or trace text is parsed (`ParseTelemetryCsv`, `ImportAzureVmTrace`)
/// or printed (`RecordsToCsvText`). The lake stores SGB1
/// (series_block.h), whose encoder groups rows per server and whose
/// decoder (`StreamSeriesBlockServers`) yields `ServerTelemetry`, the
/// form every pipeline and CLI reader works on.

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

/// \brief The one field splitter of the telemetry CSV codec and the
/// Azure trace importer: walks comma-separated text line by line and
/// splits each line into at most five fields, as views into the text.
///
/// Lines end in LF or CRLF. Empty lines are skipped but still counted,
/// so `line_no()` is the line's number in the text. Each reader words
/// its own status for a bad line.
class CsvRowReader {
 public:
  explicit CsvRowReader(std::string_view text) : text_(text) {}

  /// Advances to the next non-empty line; false at the end of the text.
  bool Next();

  /// 1-based number of the current line.
  size_t line_no() const { return line_no_; }
  /// The current line, without its line ending.
  std::string_view line() const { return line_; }
  /// Fields on the current line; a line with more than five reads 6.
  int field_count() const { return field_count_; }
  /// Field `i` of the current line, `i` < min(5, field_count()).
  std::string_view field(int i) const { return fields_[i]; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  size_t line_no_ = 0;
  std::string_view line_;
  int field_count_ = 0;
  std::string_view fields_[5];
};

/// Resident footprint of one grouped server (id + samples), the unit
/// the fleet memory plane budgets ingest by.
int64_t ApproxTelemetryBytes(const ServerTelemetry& server);

}  // namespace seagull
