/// \file emitter.h
/// \brief Load Extraction analog: turns the simulated fleet into the
/// SGB1 (`SeriesBlock`) files the pipeline ingests.
///
/// In production, Load Extraction is a recurring query over raw telemetry
/// that writes per-region files into ADLS once a week (§2.2). Here the
/// emitter plays the role of that query against the fleet simulator,
/// and `ExtractWeekBlockTo` is its one fleet walk: telemetry leaves the
/// simulator as SGB1 bytes, never as rows.

#pragma once

#include "telemetry/fleet.h"
#include "telemetry/series_block.h"

namespace seagull {

/// Weeks of history one extraction covers, ending with its week (the
/// evaluation data sets contain four weeks, §5.3.1).
inline constexpr int64_t kExtractionHistoryWeeks = 4;

/// `ExtractWeekBlockTo` collected into a string: one region-week as an
/// SGB1 blob, ready for `LakeStore::Put`.
std::string ExtractWeekBlock(const Fleet& fleet, int64_t week_index);

/// Streaming extraction of the `kExtractionHistoryWeeks` ending with
/// week `week_index` (inclusive) straight into `sink` as SGB1 bytes,
/// never materializing rows or the blob. Minutes where a server was not
/// alive or telemetry was dropped are simply absent. The fleet is
/// walked twice (a sizing pass counting each server's present samples,
/// then an append pass regenerating and emitting them), so the resident
/// cost is one server's `LoadSeries` plus the writer's value-column
/// buffer instead of a whole region-week. Pair with
/// `LakeStore::PutStreamed` to stage a region without ever holding its
/// blob. If `peak_resident_bytes` is non-null it receives the writer's
/// high-water mark.
Status ExtractWeekBlockTo(const Fleet& fleet, int64_t week_index,
                          const SeriesBlockWriter::Sink& sink,
                          int64_t* peak_resident_bytes = nullptr);

/// The default backup window of a server in a given week, as stamps.
/// (The legacy workflow schedules the weekly full backup on the server's
/// backup day at its default start minute.)
void DefaultBackupWindow(const ServerProfile& profile, int64_t week_index,
                         MinuteStamp* start, MinuteStamp* end);

}  // namespace seagull
