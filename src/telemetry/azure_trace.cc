#include "telemetry/azure_trace.h"

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"
#include "telemetry/series_block.h"

namespace seagull {

// Synthetic backup metadata for imported servers (the trace has none).
constexpr int64_t kBackupDurationMinutes = 60;
constexpr int64_t kDefaultBackupStartMinute = 2 * kMinutesPerHour;

Result<std::string> ImportAzureVmTrace(std::string_view text) {
  std::vector<TelemetryRecord> records;
  CsvRowReader rows(text);
  while (rows.Next()) {
    if (rows.field_count() != 5) {
      return Status::Invalid(StringPrintf(
          "trace line %zu has %s fields, expected 5", rows.line_no(),
          rows.field_count() > 5
              ? ">5"
              : std::to_string(rows.field_count()).c_str()));
    }
    // Header row (non-numeric first field) is allowed anywhere the
    // public dataset shards put it.
    auto ts = ParseInt64(rows.field(0));
    if (!ts.ok()) {
      if (rows.line_no() == 1) continue;  // header
      return Status::Invalid(
          StringPrintf("trace line %zu has a bad timestamp", rows.line_no()));
    }
    SEAGULL_ASSIGN_OR_RETURN(double avg, ParseDouble(rows.field(4)));
    if (*ts % 300 != 0) {
      return Status::Invalid(StringPrintf(
          "trace line %zu timestamp %lld is off the 300 s cadence",
          rows.line_no(), static_cast<long long>(*ts)));
    }
    if (avg < 0.0 || avg > 100.0) continue;  // stray row: dropped
    TelemetryRecord r;
    r.server_id.assign(rows.field(1));
    r.timestamp = *ts / 60;  // seconds -> minutes
    r.avg_cpu = avg;
    records.push_back(std::move(r));
  }
  if (records.empty()) {
    return Status::Invalid("trace contains no usable rows");
  }

  // The scheduler needs a default window per VM, on its first day.
  std::unordered_map<std::string_view, MinuteStamp> first_stamp;
  for (const auto& r : records) {
    auto [it, inserted] = first_stamp.try_emplace(r.server_id, r.timestamp);
    if (!inserted) it->second = std::min(it->second, r.timestamp);
  }
  for (auto& r : records) {
    r.default_backup_start =
        StartOfDay(first_stamp[r.server_id]) + kDefaultBackupStartMinute;
    r.default_backup_end = r.default_backup_start + kBackupDurationMinutes;
  }
  return EncodeSeriesBlock(records);
}

}  // namespace seagull
