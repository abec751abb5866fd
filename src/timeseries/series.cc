#include "timeseries/series.h"

#include <algorithm>

#include "common/strings.h"

namespace seagull {

Result<LoadSeries> LoadSeries::Make(MinuteStamp start,
                                    int64_t interval_minutes,
                                    std::vector<double> values) {
  if (interval_minutes <= 0 || kMinutesPerDay % interval_minutes != 0) {
    return Status::Invalid(StringPrintf(
        "interval %lld does not divide a day",
        static_cast<long long>(interval_minutes)));
  }
  if (start % interval_minutes != 0) {
    return Status::Invalid("series start is not aligned to the interval");
  }
  return LoadSeries(start, interval_minutes, std::move(values));
}

Result<LoadSeries> LoadSeries::MakeEmpty(MinuteStamp start,
                                         int64_t interval_minutes, int64_t n) {
  if (n < 0) return Status::Invalid("negative series length");
  return Make(start, interval_minutes,
              std::vector<double>(static_cast<size_t>(n), kMissingValue));
}

int64_t LoadSeries::IndexOf(MinuteStamp t) const {
  if (t < start_ || t >= end()) return -1;
  if ((t - start_) % interval_ != 0) return -1;
  return (t - start_) / interval_;
}

double LoadSeries::ValueAtTime(MinuteStamp t) const {
  int64_t i = IndexOf(t);
  return i < 0 ? kMissingValue : ValueAt(i);
}

LoadSeries LoadSeries::Slice(MinuteStamp from, MinuteStamp to) const {
  // Align the requested range onto this series' grid.
  MinuteStamp lo = std::max(from, start_);
  MinuteStamp hi = std::min(to, end());
  if (lo % interval_ != 0) lo += interval_ - (lo % interval_ + interval_) % interval_;
  if (lo >= hi) {
    return LoadSeries(std::max(from, start_) / interval_ * interval_,
                      interval_, {});
  }
  size_t a = static_cast<size_t>((lo - start_) / interval_);
  size_t b = static_cast<size_t>((hi - start_) / interval_);
  return LoadSeries(lo, interval_,
                    std::vector<double>(values_.begin() + a,
                                        values_.begin() + b));
}

LoadSeries LoadSeries::SliceDay(int64_t day_index) const {
  return Slice(day_index * kMinutesPerDay, (day_index + 1) * kMinutesPerDay);
}

LoadSeries LoadSeries::ShiftedTo(MinuteStamp new_start) const {
  LoadSeries out = *this;
  // Keep alignment: snap to the grid.
  out.start_ = new_start / interval_ * interval_;
  return out;
}

int64_t LoadSeries::CountPresent() const {
  int64_t n = 0;
  for (double v : values_) {
    if (!IsMissing(v)) ++n;
  }
  return n;
}

double LoadSeries::Mean() const { return MeanInRange(start_, end()); }

double LoadSeries::Min() const {
  double m = kMissingValue;
  for (double v : values_) {
    if (IsMissing(v)) continue;
    if (IsMissing(m) || v < m) m = v;
  }
  return m;
}

double LoadSeries::Max() const {
  double m = kMissingValue;
  for (double v : values_) {
    if (IsMissing(v)) continue;
    if (IsMissing(m) || v > m) m = v;
  }
  return m;
}

double LoadSeries::MeanInRange(MinuteStamp from, MinuteStamp to) const {
  double sum = 0.0;
  int64_t n = 0;
  MinuteStamp lo = std::max(from, start_);
  MinuteStamp hi = std::min(to, end());
  for (MinuteStamp t = lo; t < hi; t += interval_) {
    int64_t i = IndexOf(t);
    if (i < 0) continue;
    double v = ValueAt(i);
    if (IsMissing(v)) continue;
    sum += v;
    ++n;
  }
  return n == 0 ? kMissingValue : sum / static_cast<double>(n);
}

Status LoadSeries::MergeFrom(const LoadSeries& other) {
  if (other.empty()) return Status::OK();
  if (empty()) {
    *this = other;
    return Status::OK();
  }
  if (other.interval_ != interval_) {
    return Status::Invalid("cannot merge series with different intervals");
  }
  MinuteStamp lo = std::min(start_, other.start_);
  MinuteStamp hi = std::max(end(), other.end());
  std::vector<double> merged(static_cast<size_t>((hi - lo) / interval_),
                             kMissingValue);
  for (int64_t i = 0; i < size(); ++i) {
    merged[static_cast<size_t>((TimeAt(i) - lo) / interval_)] = ValueAt(i);
  }
  for (int64_t i = 0; i < other.size(); ++i) {
    double v = other.ValueAt(i);
    if (!IsMissing(v)) {
      merged[static_cast<size_t>((other.TimeAt(i) - lo) / interval_)] = v;
    }
  }
  start_ = lo;
  values_ = std::move(merged);
  return Status::OK();
}

}  // namespace seagull
