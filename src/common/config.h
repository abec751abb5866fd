/// \file config.h
/// \brief Production constants from the paper (Definitions 1–9).
///
/// The paper states these were "empirically chosen by domain experts and
/// are now used in production for the backup scheduling use case"; other
/// constants can be plugged in for other scenarios, so every consumer in
/// this library takes them as parameters with these values as defaults.

#pragma once

#include <cstdint>

namespace seagull {

/// \brief Tolerances and thresholds of the low-load accuracy metrics.
struct AccuracyConfig {
  /// Definition 1: a predicted point may exceed its true point by at most
  /// this many CPU-percentage points and still land in the bucket.
  double over_bound = 10.0;
  /// Definition 1: a predicted point may undershoot its true point by at
  /// most this many points. Asymmetric on purpose: under-prediction risks
  /// scheduling a backup into real customer load.
  double under_bound = 5.0;
  /// Definition 2: a prediction is accurate if at least this fraction of
  /// points is inside the bound.
  double accurate_bucket_ratio = 0.90;
  /// Definition 8: the predicted LL window is chosen correctly when its
  /// average *true* load is within this many points of the true LL
  /// window's average true load.
  double window_tolerance = 10.0;
};

/// \brief Fleet- and scheduling-level constants.
struct FleetConfig {
  /// Definition 3 / Definition 9: history required to call a server
  /// long-lived, and the span over which predictability is verified.
  int64_t long_lived_weeks = 3;
  /// §5.3.1: servers need at least this many days of history before their
  /// backup day for a model to be trained.
  int64_t min_history_days = 3;
};

/// §6.2: CPU load percentage above which a server is busy — "customer
/// load over 60% of capacity". A backup window whose true load reaches
/// it collides with customer activity. Fixed, not a parameter.
inline constexpr double kBusyLoadPct = 60.0;

}  // namespace seagull
