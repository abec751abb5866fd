#include "timeseries/stats.h"

#include <algorithm>
#include <cmath>

namespace seagull {

SeriesSummary Summarize(const LoadSeries& series) {
  SeriesSummary s;
  double sum = 0.0, sum_sq = 0.0;
  bool any = false;
  for (int64_t i = 0; i < series.size(); ++i) {
    double v = series.ValueAt(i);
    if (IsMissing(v)) {
      ++s.missing;
      continue;
    }
    ++s.count;
    sum += v;
    sum_sq += v * v;
    if (!any || v < s.min) s.min = v;
    if (!any || v > s.max) s.max = v;
    any = true;
  }
  if (s.count > 0) {
    s.mean = sum / static_cast<double>(s.count);
    double var = sum_sq / static_cast<double>(s.count) - s.mean * s.mean;
    s.stddev = var > 0 ? std::sqrt(var) : 0.0;
  }
  return s;
}

double Quantile(std::vector<double> values, double q) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return IsMissing(v); }),
               values.end());
  if (values.empty()) return kMissingValue;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace seagull
