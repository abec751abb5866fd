#include "timeseries/resample.h"

namespace seagull {

Result<LoadSeries> Downsample(const LoadSeries& series,
                              int64_t new_interval_minutes) {
  const int64_t old_interval = series.interval_minutes();
  if (new_interval_minutes % old_interval != 0) {
    return Status::Invalid("new interval must be a multiple of the old one");
  }
  if (kMinutesPerDay % new_interval_minutes != 0) {
    return Status::Invalid("new interval must divide a day");
  }
  if (new_interval_minutes == old_interval) return series;
  const int64_t factor = new_interval_minutes / old_interval;

  // Align output start down to the new grid.
  MinuteStamp out_start = series.start();
  if (out_start % new_interval_minutes != 0) {
    out_start -= (out_start % new_interval_minutes + new_interval_minutes) %
                 new_interval_minutes;
  }
  const int64_t out_n =
      (series.end() - out_start + new_interval_minutes - 1) /
      new_interval_minutes;
  std::vector<double> out(static_cast<size_t>(out_n), kMissingValue);
  for (int64_t j = 0; j < out_n; ++j) {
    MinuteStamp bucket_start = out_start + j * new_interval_minutes;
    double sum = 0.0;
    int64_t cnt = 0;
    for (int64_t k = 0; k < factor; ++k) {
      double v = series.ValueAtTime(bucket_start + k * old_interval);
      if (IsMissing(v)) continue;
      sum += v;
      ++cnt;
    }
    if (cnt > 0) out[static_cast<size_t>(j)] = sum / static_cast<double>(cnt);
  }
  return LoadSeries::Make(out_start, new_interval_minutes, std::move(out));
}

LoadSeries InterpolateMissing(const LoadSeries& series) {
  LoadSeries out = series;
  const int64_t n = out.size();
  int64_t prev = -1;  // index of last present sample
  for (int64_t i = 0; i < n; ++i) {
    if (out.MissingAt(i)) continue;
    if (prev < 0) {
      // Leading gap: backfill with the first present value.
      for (int64_t j = 0; j < i; ++j) out.SetValue(j, out.ValueAt(i));
    } else if (prev + 1 < i) {
      double lo = out.ValueAt(prev);
      double hi = out.ValueAt(i);
      for (int64_t j = prev + 1; j < i; ++j) {
        double frac = static_cast<double>(j - prev) /
                      static_cast<double>(i - prev);
        out.SetValue(j, lo + (hi - lo) * frac);
      }
    }
    prev = i;
  }
  if (prev >= 0) {
    for (int64_t j = prev + 1; j < n; ++j) out.SetValue(j, out.ValueAt(prev));
  }
  return out;
}

}  // namespace seagull
