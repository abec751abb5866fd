/// \file telemetry_reference.h
/// \brief Test-only oracles for the telemetry data plane.
///
/// `src/telemetry` keeps one fleet walk (`ExtractWeekBlockTo`) and one
/// per-server grouping (`StreamSeriesBlockServers`), both over SGB1.
/// The code here is what those are checked against: the row-at-a-time
/// versions they replaced, which build every telemetry row and then
/// group the rows with a hash index. It favours obviousness over speed
/// and is never linked into the library.

#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/strings.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"
#include "telemetry/records.h"

namespace seagull::reference {

/// The rows of one extraction: every present sample of the
/// `kExtractionHistoryWeeks` ending with week `week_index`, server by
/// server in fleet order, each row carrying its server's default
/// backup window for that week.
inline std::vector<TelemetryRecord> ExtractWeekRows(const Fleet& fleet,
                                                    int64_t week_index) {
  std::vector<TelemetryRecord> out;
  MinuteStamp to = (week_index + 1) * kMinutesPerWeek;
  MinuteStamp from = to - kExtractionHistoryWeeks * kMinutesPerWeek;
  if (from < 0) from = 0;
  for (const auto& profile : fleet.servers()) {
    LoadSeries load = fleet.ObservedLoad(profile, from, to);
    MinuteStamp b_start = 0, b_end = 0;
    DefaultBackupWindow(profile, week_index, &b_start, &b_end);
    for (int64_t i = 0; i < load.size(); ++i) {
      double v = load.ValueAt(i);
      if (IsMissing(v)) continue;
      TelemetryRecord r;
      r.server_id = profile.server_id;
      r.timestamp = load.TimeAt(i);
      r.avg_cpu = v;
      r.default_backup_start = b_start;
      r.default_backup_end = b_end;
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Groups rows by server into aligned load series, sorted by id. Rows
/// may arrive in any order; duplicate (server, timestamp) rows keep the
/// last value, and a server's backup window is its last row's. A row
/// off the grid is Invalid, with the text the SGB1 grouping uses.
inline Result<std::vector<ServerTelemetry>> GroupByServer(
    const std::vector<TelemetryRecord>& records,
    int64_t interval_minutes = kServerIntervalMinutes) {
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

}  // namespace seagull::reference
