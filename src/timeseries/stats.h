/// \file stats.h
/// \brief Descriptive statistics over load series and raw samples.

#pragma once

#include <vector>

#include "timeseries/series.h"

namespace seagull {

/// \brief Summary of a sample set (missing values excluded).
struct SeriesSummary {
  int64_t count = 0;
  int64_t missing = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes a full summary in one pass.
SeriesSummary Summarize(const LoadSeries& series);

/// Linear-interpolated quantile `q` in [0,1] of present samples;
/// missing if none present.
double Quantile(std::vector<double> values, double q);

}  // namespace seagull
