/// \file additive.h
/// \brief Additive trend + seasonality forecaster — the Prophet analog.
///
/// Prophet (§5.1) fits "an additive model where non-linear trends are fit
/// with yearly, weekly, and daily seasonality". At telemetry horizons the
/// relevant parts are a piecewise-linear trend with changepoints plus
/// daily and weekly Fourier seasonalities, estimated by iterative MAP
/// optimization — reproduced here with full-batch gradient descent and
/// Monte-Carlo uncertainty sampling at inference (the two properties that
/// make the original slow, §5.3.3).

#pragma once

#include <vector>

#include "common/random.h"
#include "forecast/model.h"

namespace seagull {

/// Largest Fourier order, and largest changepoint count, a restored
/// model may carry (production uses 8 / 4 / 8).
inline constexpr int64_t kMaxAdditiveTerms = 1000;
/// Largest `uncertainty_samples` a restored model may carry (production
/// uses 100). It also sizes the per-thread draw table `Forecast` keeps.
inline constexpr int64_t kMaxUncertaintySamples = 1000;

/// \brief Model structure and optimizer parameters.
struct AdditiveOptions {
  /// Fourier order of the daily / weekly seasonal blocks.
  int64_t daily_order = 8;
  int64_t weekly_order = 4;
  /// Known special days (day indices since epoch). Prophet's "holiday
  /// effects": each listed day gets a shared additive offset estimated
  /// from the training data and applied when forecasting another listed
  /// day (e.g. month-end batch runs, fiscal closes).
  std::vector<int64_t> holidays;
  /// Evenly spaced trend changepoints over the training range.
  int64_t changepoints = 8;
  /// L2 penalty on changepoint slopes (sparsity prior stand-in).
  double changepoint_penalty = 10.0;
  /// Full-batch gradient-descent iterations (the MAP optimization).
  int64_t iterations = 600;
  double learning_rate = 0.05;
  /// Posterior-style trend simulations per forecast; the dominant
  /// inference cost, as in the original. Every forecast at one start
  /// consumes the same normal stream, so a thread draws it once and
  /// reuses it until the start changes (see `Forecast`).
  int64_t uncertainty_samples = 100;
  uint64_t seed = 11;
};

/// \brief Prophet-style additive forecaster.
class AdditiveForecast final : public ForecastModel {
 public:
  explicit AdditiveForecast(AdditiveOptions options = {})
      : options_(options) {}

  std::string name() const override { return "additive"; }
  /// MAP fit by full-batch gradient descent in Gram space. The design
  /// matrix and its AᵀA Gram depend only on the grid (start, interval,
  /// sample count) and the structure options `FeaturesAt` reads
  /// (changepoints, orders, holidays); each thread keeps the pair of
  /// the last grid it fit, so a fit on a repeated grid skips the build.
  /// Callers that fit many servers keep equal grids adjacent. The
  /// coefficients are the same bits either way.
  Status Fit(const LoadSeries& train) override;
  /// The mean of `uncertainty_samples` simulated trend continuations.
  /// Their standard normals come from one stream seeded with
  /// `seed ^ start`; each thread keeps the stream it drew last, so
  /// consecutive forecasts at one start (a serving tick's refits) draw
  /// it once. The output is the same bits either way.
  Result<LoadSeries> Forecast(const LoadSeries& recent, MinuteStamp start,
                              int64_t horizon_minutes) const override;
  Result<Json> Serialize() const override;
  /// Restores a serialized model; a document whose interval is not
  /// positive, whose orders or changepoint count lie outside
  /// [0, kMaxAdditiveTerms], or whose `uncertainty_samples` lie outside
  /// [1, kMaxUncertaintySamples] is `Invalid`.
  Status Deserialize(const Json& doc) override;

 private:
  /// Number of model coefficients.
  int64_t NumFeatures() const;
  /// Writes the NumFeatures() feature values at absolute minute `t`
  /// into `phi` (a raw pointer, so the fit writes design-matrix rows in
  /// place).
  void FeaturesAt(MinuteStamp t, double* phi) const;
  /// True when `day_index` is a configured holiday.
  bool IsHoliday(int64_t day_index) const;

  AdditiveOptions options_;
  bool fitted_ = false;
  int64_t interval_ = kServerIntervalMinutes;
  MinuteStamp train_start_ = 0;
  MinuteStamp train_end_ = 0;
  std::vector<double> coef_;
  double residual_sigma_ = 0.0;
};

}  // namespace seagull
