#include "telemetry/records.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <string_view>
#include <unordered_map>

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

Result<std::vector<TelemetryRecord>> ParseTelemetryCsv(
    std::string_view text) {
  std::vector<TelemetryRecord> out;
  size_t pos = 0;
  const size_t size = text.size();
  auto next_line = [&](std::string_view* line) {
    if (pos >= size) return false;
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = size;
    *line = text.substr(pos, end - pos);
    pos = end + 1;
    if (!line->empty() && line->back() == '\r') {
      line->remove_suffix(1);
    }
    return true;
  };

  std::string_view header;
  if (!next_line(&header)) return Status::Invalid("empty telemetry CSV");
  {
    std::string expected;
    for (int i = 0; i < 5; ++i) {
      if (i > 0) expected += ',';
      expected += kTelemetryColumns[i];
    }
    if (header != expected) {
      return Status::Invalid("unexpected telemetry CSV header");
    }
  }
  out.reserve(size / 48);

  std::string_view line;
  size_t line_no = 1;
  while (next_line(&line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string_view fields[5];
    size_t start = 0;
    int nf = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (nf >= 5) {
          return Status::Invalid(StringPrintf(
              "telemetry CSV line %zu has too many fields", line_no));
        }
        fields[nf++] = line.substr(start, i - start);
        start = i + 1;
      }
    }
    if (nf != 5) {
      return Status::Invalid(StringPrintf(
          "telemetry CSV line %zu has %d fields, expected 5", line_no, nf));
    }
    TelemetryRecord r;
    r.server_id.assign(fields[0]);
    SEAGULL_ASSIGN_OR_RETURN(r.timestamp, ParseInt64(fields[1]));
    SEAGULL_ASSIGN_OR_RETURN(r.avg_cpu, ParseDouble(fields[2]));
    SEAGULL_ASSIGN_OR_RETURN(r.default_backup_start, ParseInt64(fields[3]));
    SEAGULL_ASSIGN_OR_RETURN(r.default_backup_end, ParseInt64(fields[4]));
    out.push_back(std::move(r));
  }
  return out;
}

int64_t ApproxTelemetryBytes(const ServerTelemetry& server) {
  return static_cast<int64_t>(sizeof(ServerTelemetry)) +
         static_cast<int64_t>(server.server_id.size()) +
         server.load.size() * static_cast<int64_t>(sizeof(double));
}

Result<std::vector<ServerTelemetry>> GroupByServer(
    const std::vector<TelemetryRecord>& records, int64_t interval_minutes) {
  struct Acc {
    std::string_view id;
    MinuteStamp min_t = 0;
    MinuteStamp max_t = 0;
    bool any = false;
    std::vector<std::pair<MinuteStamp, double>> samples;
    MinuteStamp backup_start = 0;
    MinuteStamp backup_end = 0;
  };
  // Extractions are written server-major, so consecutive rows almost
  // always belong to the same server: remember the last slot and only
  // touch the hash index on a server change.
  std::unordered_map<std::string_view, size_t> index;
  std::vector<Acc> accs;
  std::string_view last_id;
  size_t last_slot = 0;
  bool have_last = false;
  for (const auto& r : records) {
    if (r.timestamp % interval_minutes != 0) {
      return Status::Invalid(StringPrintf(
          "timestamp %lld of server %s is off the %lld-minute grid",
          static_cast<long long>(r.timestamp), r.server_id.c_str(),
          static_cast<long long>(interval_minutes)));
    }
    size_t slot;
    if (have_last && last_id == r.server_id) {
      slot = last_slot;
    } else {
      auto [it, inserted] = index.try_emplace(r.server_id, accs.size());
      if (inserted) {
        accs.emplace_back();
        accs.back().id = it->first;
      }
      slot = it->second;
      last_id = it->first;
      last_slot = slot;
      have_last = true;
    }
    Acc& acc = accs[slot];
    if (!acc.any) {
      acc.min_t = acc.max_t = r.timestamp;
      acc.any = true;
    } else {
      acc.min_t = std::min(acc.min_t, r.timestamp);
      acc.max_t = std::max(acc.max_t, r.timestamp);
    }
    acc.samples.emplace_back(r.timestamp, r.avg_cpu);
    acc.backup_start = r.default_backup_start;
    acc.backup_end = r.default_backup_end;
  }
  std::sort(accs.begin(), accs.end(),
            [](const Acc& a, const Acc& b) { return a.id < b.id; });

  std::vector<ServerTelemetry> out;
  out.reserve(accs.size());
  for (auto& acc : accs) {
    int64_t n = (acc.max_t - acc.min_t) / interval_minutes + 1;
    SEAGULL_ASSIGN_OR_RETURN(
        LoadSeries series,
        LoadSeries::MakeEmpty(acc.min_t, interval_minutes, n));
    for (const auto& [t, v] : acc.samples) {
      series.SetValue((t - acc.min_t) / interval_minutes, v);
    }
    ServerTelemetry st;
    st.server_id.assign(acc.id);
    st.load = std::move(series);
    st.default_backup_start = acc.backup_start;
    st.default_backup_end = acc.backup_end;
    out.push_back(std::move(st));
  }
  return out;
}

}  // namespace seagull
