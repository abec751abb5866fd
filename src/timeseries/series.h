/// \file series.h
/// \brief `LoadSeries`: a regular grid of CPU-load samples for one server.
///
/// Telemetry arrives as average user CPU load percentage per fixed
/// interval (5 minutes for PostgreSQL/MySQL servers, 15 for SQL
/// databases). A `LoadSeries` stores those samples on an aligned minute
/// grid; gaps in telemetry are represented as NaN ("missing") so that
/// validation can detect them and metrics can skip them.

#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/time.h"

namespace seagull {

/// Sentinel for a missing sample.
inline constexpr double kMissingValue =
    std::numeric_limits<double>::quiet_NaN();

/// True if `v` denotes a missing sample.
inline bool IsMissing(double v) { return std::isnan(v); }

/// \brief Regularly spaced load samples on the simulation calendar.
class LoadSeries {
 public:
  /// Creates a series. `start` must be aligned to `interval_minutes`,
  /// which must evenly divide a day.
  static Result<LoadSeries> Make(MinuteStamp start, int64_t interval_minutes,
                                 std::vector<double> values);

  /// Creates an all-missing series covering [start, start + n*interval).
  static Result<LoadSeries> MakeEmpty(MinuteStamp start,
                                      int64_t interval_minutes, int64_t n);

  LoadSeries() = default;

  MinuteStamp start() const { return start_; }
  /// One past the last sample's stamp.
  MinuteStamp end() const {
    return start_ + static_cast<int64_t>(values_.size()) * interval_;
  }
  int64_t interval_minutes() const { return interval_; }
  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  bool empty() const { return values_.empty(); }

  /// Samples per day at this granularity.
  int64_t ticks_per_day() const { return TicksPerDay(interval_); }

  const std::vector<double>& values() const { return values_; }

  /// Stamp of sample `i`.
  MinuteStamp TimeAt(int64_t i) const { return start_ + i * interval_; }

  /// Index of the sample at stamp `t`, or -1 if out of range/unaligned.
  int64_t IndexOf(MinuteStamp t) const;

  double ValueAt(int64_t i) const { return values_[static_cast<size_t>(i)]; }
  bool MissingAt(int64_t i) const { return IsMissing(ValueAt(i)); }
  void SetValue(int64_t i, double v) { values_[static_cast<size_t>(i)] = v; }

  /// Value at stamp `t`, or missing if out of range.
  double ValueAtTime(MinuteStamp t) const;

  /// Copies the sub-series covering [from, to). Clamps to the series
  /// bounds; stamps outside the series contribute nothing.
  LoadSeries Slice(MinuteStamp from, MinuteStamp to) const;

  /// Copies one calendar day (day index since epoch).
  LoadSeries SliceDay(int64_t day_index) const;

  /// Returns a copy re-stamped to start at `new_start` (persistent
  /// forecast: yesterday's load becomes today's prediction).
  LoadSeries ShiftedTo(MinuteStamp new_start) const;

  /// Number of non-missing samples.
  int64_t CountPresent() const;
  /// Number of missing samples.
  int64_t CountMissing() const { return size() - CountPresent(); }

  /// Mean of present samples; missing if none present.
  double Mean() const;
  /// Min / max over present samples; missing if none present.
  double Min() const;
  double Max() const;

  /// Average over present samples within [from, to); missing if none.
  double MeanInRange(MinuteStamp from, MinuteStamp to) const;

  /// Merges another series with the same interval into this one,
  /// extending the time range as needed; `other`'s present samples win.
  Status MergeFrom(const LoadSeries& other);

 private:
  LoadSeries(MinuteStamp start, int64_t interval, std::vector<double> values)
      : start_(start), interval_(interval), values_(std::move(values)) {}

  MinuteStamp start_ = 0;
  int64_t interval_ = kServerIntervalMinutes;
  std::vector<double> values_;
};

}  // namespace seagull
