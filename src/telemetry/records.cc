#include "telemetry/records.h"

#include <charconv>
#include <limits>
#include <string_view>

#include "common/strings.h"

namespace seagull {

namespace {

/// Appends `v` in decimal, as `"%lld"` prints it.
void AppendInt64(std::string* out, int64_t v) {
  char buf[std::numeric_limits<int64_t>::digits10 + 2];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

const char* const kTelemetryColumns[5] = {
    "server_id", "timestamp_minutes", "avg_cpu_pct",
    "default_backup_start", "default_backup_end"};

std::string RecordsToCsvText(const std::vector<TelemetryRecord>& records) {
  std::string out;
  // server_id(~20) + 4 numeric fields: ~64 bytes per row.
  out.reserve(records.size() * 64 + 128);
  for (int i = 0; i < 5; ++i) {
    if (i > 0) out += ',';
    out += kTelemetryColumns[i];
  }
  out += '\n';
  for (const auto& r : records) {
    out += r.server_id;
    out += ',';
    AppendInt64(&out, r.timestamp);
    out += ',';
    AppendFixed4(&out, r.avg_cpu);
    out += ',';
    AppendInt64(&out, r.default_backup_start);
    out += ',';
    AppendInt64(&out, r.default_backup_end);
    out += '\n';
  }
  return out;
}

bool CsvRowReader::Next() {
  while (pos_ < text_.size()) {
    size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    line_ = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++line_no_;
    if (!line_.empty() && line_.back() == '\r') line_.remove_suffix(1);
    if (line_.empty()) continue;
    field_count_ = 0;
    size_t start = 0;
    for (size_t i = 0; i <= line_.size(); ++i) {
      if (i == line_.size() || line_[i] == ',') {
        if (field_count_ == 5) {
          field_count_ = 6;
          break;
        }
        fields_[field_count_++] = line_.substr(start, i - start);
        start = i + 1;
      }
    }
    return true;
  }
  return false;
}

Result<std::vector<TelemetryRecord>> ParseTelemetryCsv(
    std::string_view text) {
  if (text.empty()) return Status::Invalid("empty telemetry CSV");
  std::string header;
  for (int i = 0; i < 5; ++i) {
    if (i > 0) header += ',';
    header += kTelemetryColumns[i];
  }
  CsvRowReader rows(text);
  if (!rows.Next() || rows.line_no() != 1 || rows.line() != header) {
    return Status::Invalid("unexpected telemetry CSV header");
  }
  std::vector<TelemetryRecord> out;
  out.reserve(text.size() / 48);
  while (rows.Next()) {
    if (rows.field_count() > 5) {
      return Status::Invalid(StringPrintf(
          "telemetry CSV line %zu has too many fields", rows.line_no()));
    }
    if (rows.field_count() != 5) {
      return Status::Invalid(
          StringPrintf("telemetry CSV line %zu has %d fields, expected 5",
                       rows.line_no(), rows.field_count()));
    }
    TelemetryRecord r;
    r.server_id.assign(rows.field(0));
    SEAGULL_ASSIGN_OR_RETURN(r.timestamp, ParseInt64(rows.field(1)));
    SEAGULL_ASSIGN_OR_RETURN(r.avg_cpu, ParseDouble(rows.field(2)));
    SEAGULL_ASSIGN_OR_RETURN(r.default_backup_start,
                             ParseInt64(rows.field(3)));
    SEAGULL_ASSIGN_OR_RETURN(r.default_backup_end, ParseInt64(rows.field(4)));
    out.push_back(std::move(r));
  }
  return out;
}

int64_t ApproxTelemetryBytes(const ServerTelemetry& server) {
  return static_cast<int64_t>(sizeof(ServerTelemetry)) +
         static_cast<int64_t>(server.server_id.size()) +
         server.load.size() * static_cast<int64_t>(sizeof(double));
}

}  // namespace seagull
