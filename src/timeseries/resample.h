/// \file resample.h
/// \brief Granularity conversion and gap repair for load series.

#pragma once

#include "timeseries/series.h"

namespace seagull {

/// Downsamples to a coarser interval by averaging present samples within
/// each output bucket (e.g. 5-minute server telemetry to the 15-minute
/// SQL-database granularity of Appendix A). The new interval must be a
/// multiple of the old one and divide a day.
Result<LoadSeries> Downsample(const LoadSeries& series,
                              int64_t new_interval_minutes);

/// Fills missing samples by linear interpolation between the nearest
/// present neighbours; leading/trailing gaps are filled with the nearest
/// present value. A series with no present samples is returned unchanged.
LoadSeries InterpolateMissing(const LoadSeries& series);

}  // namespace seagull
