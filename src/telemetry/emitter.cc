#include "telemetry/emitter.h"

#include "telemetry/series_block.h"

namespace seagull {

std::string ExtractWeekBlock(const Fleet& fleet, int64_t week_index) {
  std::string out;
  // The sink never fails and the fleet walk always follows the writer's
  // protocol, so the extraction cannot fail.
  ExtractWeekBlockTo(fleet, week_index, [&out](std::string_view bytes) {
    out.append(bytes);
    return Status::OK();
  }).Abort();
  return out;
}

Status ExtractWeekBlockTo(const Fleet& fleet, int64_t week_index,
                          const SeriesBlockWriter::Sink& sink,
                          int64_t* peak_resident_bytes) {
  MinuteStamp to = (week_index + 1) * kMinutesPerWeek;
  MinuteStamp from = to - kExtractionHistoryWeeks * kMinutesPerWeek;
  if (from < 0) from = 0;
  SeriesBlockWriter writer(sink);
  // Sizing pass: count each server's present samples. Servers with no
  // surviving samples are dropped by Declare: they have no telemetry.
  for (const auto& profile : fleet.servers()) {
    LoadSeries load = fleet.ObservedLoad(profile, from, to);
    int64_t present = 0;
    for (int64_t i = 0; i < load.size(); ++i) {
      if (!IsMissing(load.ValueAt(i))) ++present;
    }
    MinuteStamp b_start = 0, b_end = 0;
    DefaultBackupWindow(profile, week_index, &b_start, &b_end);
    SEAGULL_RETURN_NOT_OK(
        writer.Declare(profile.server_id, present, b_start, b_end));
  }
  SEAGULL_RETURN_NOT_OK(writer.StartAppend());
  // Append pass: regenerate each server's series (the simulator is
  // deterministic, so the second walk sees identical samples) and
  // stream it out.
  for (const auto& profile : fleet.servers()) {
    LoadSeries load = fleet.ObservedLoad(profile, from, to);
    for (int64_t i = 0; i < load.size(); ++i) {
      const double v = load.ValueAt(i);
      if (IsMissing(v)) continue;
      SEAGULL_RETURN_NOT_OK(writer.Append(profile.server_id, load.TimeAt(i), v));
    }
  }
  SEAGULL_RETURN_NOT_OK(writer.Finish());
  if (peak_resident_bytes != nullptr) {
    *peak_resident_bytes = writer.peak_resident_bytes();
  }
  return Status::OK();
}

void DefaultBackupWindow(const ServerProfile& profile, int64_t week_index,
                         MinuteStamp* start, MinuteStamp* end) {
  MinuteStamp day_start =
      week_index * kMinutesPerWeek +
      static_cast<int64_t>(profile.backup_day) * kMinutesPerDay;
  *start = day_start + profile.default_backup_start_minute;
  *end = *start + profile.backup_duration_minutes;
  // Keep the window inside the backup day.
  MinuteStamp day_end = day_start + kMinutesPerDay;
  if (*end > day_end) {
    *end = day_end;
    *start = day_end - profile.backup_duration_minutes;
  }
}

}  // namespace seagull
