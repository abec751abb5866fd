#include "telemetry/azure_trace.h"

#include <algorithm>

#include "common/strings.h"
#include "telemetry/series_block.h"

namespace seagull {

// Synthetic backup metadata for imported servers (the trace has none).
constexpr int64_t kBackupDurationMinutes = 60;
constexpr int64_t kDefaultBackupStartMinute = 2 * kMinutesPerHour;

Result<std::vector<ServerTelemetry>> ImportAzureVmTrace(
    const std::string& text) {
  std::vector<TelemetryRecord> records;
  size_t pos = 0;
  const size_t size = text.size();
  size_t line_no = 0;
  while (pos < size) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = size;
    std::string_view line = std::string_view(text).substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;

    // Split into exactly 5 fields.
    std::string_view fields[5];
    size_t start = 0;
    int nf = 0;
    bool too_many = false;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (nf >= 5) {
          too_many = true;
          break;
        }
        fields[nf++] = line.substr(start, i - start);
        start = i + 1;
      }
    }
    if (too_many || nf != 5) {
      return Status::Invalid(StringPrintf(
          "trace line %zu has %s fields, expected 5", line_no,
          too_many ? ">5" : std::to_string(nf).c_str()));
    }
    // Header row (non-numeric first field) is allowed anywhere the
    // public dataset shards put it.
    auto ts = ParseInt64(fields[0]);
    if (!ts.ok()) {
      if (line_no == 1) continue;  // header
      return Status::Invalid(
          StringPrintf("trace line %zu has a bad timestamp", line_no));
    }
    SEAGULL_ASSIGN_OR_RETURN(double avg, ParseDouble(fields[4]));
    if (*ts % 300 != 0) {
      return Status::Invalid(StringPrintf(
          "trace line %zu timestamp %lld is off the 300 s cadence",
          line_no, static_cast<long long>(*ts)));
    }
    if (avg < 0.0 || avg > 100.0) continue;  // stray row: dropped
    TelemetryRecord r;
    r.server_id.assign(fields[1]);
    r.timestamp = *ts / 60;  // seconds -> minutes
    r.avg_cpu = avg;
    records.push_back(std::move(r));
  }
  if (records.empty()) {
    return Status::Invalid("trace contains no usable rows");
  }

  SEAGULL_ASSIGN_OR_RETURN(auto grouped, GroupByServer(records));
  // The scheduler needs a default window per server.
  for (auto& server : grouped) {
    int64_t first_day = DayIndex(server.load.start());
    server.default_backup_start =
        first_day * kMinutesPerDay + kDefaultBackupStartMinute;
    server.default_backup_end =
        server.default_backup_start + kBackupDurationMinutes;
  }
  return grouped;
}

std::string ExportToSeriesBlock(
    const std::vector<ServerTelemetry>& servers) {
  std::vector<TelemetryRecord> records;
  for (const auto& server : servers) {
    for (int64_t i = 0; i < server.load.size(); ++i) {
      double v = server.load.ValueAt(i);
      if (IsMissing(v)) continue;
      TelemetryRecord r;
      r.server_id = server.server_id;
      r.timestamp = server.load.TimeAt(i);
      r.avg_cpu = v;
      r.default_backup_start = server.default_backup_start;
      r.default_backup_end = server.default_backup_end;
      records.push_back(std::move(r));
    }
  }
  return EncodeSeriesBlock(records);
}

}  // namespace seagull
