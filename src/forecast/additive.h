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

class BatchTrainer;
class Matrix;

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
  /// inference cost, as in the original.
  int64_t uncertainty_samples = 100;
  uint64_t seed = 11;
};

/// \brief Prophet-style additive forecaster.
class AdditiveForecast final : public ForecastModel {
 public:
  explicit AdditiveForecast(AdditiveOptions options = {})
      : options_(options) {}

  std::string name() const override { return "additive"; }
  Status Fit(const LoadSeries& train) override;
  Result<LoadSeries> Forecast(const LoadSeries& recent, MinuteStamp start,
                              int64_t horizon_minutes) const override;
  Result<Json> Serialize() const override;
  Status Deserialize(const Json& doc) override;

 private:
  /// BatchTrainer builds one design matrix (and Gram) per shape group
  /// and runs the per-server optimizer loop below against it.
  friend class BatchTrainer;

  /// Number of model coefficients.
  int64_t NumFeatures() const;
  /// Anchors the feature time scale to `filled`'s range. Must run
  /// before FeaturesAt / FitWithDesign.
  void SetTrainRange(const LoadSeries& filled);
  /// The optimizer core: fits `coef_` against a design matrix whose
  /// row i is FeaturesAt(filled.TimeAt(i)) and its AᵀA `gram`,
  /// iterating in Gram space — O(p²) per step instead of O(n·p) —
  /// which is also what lets batched training share one design+Gram
  /// across every server in a shape group.
  Status FitWithDesign(const LoadSeries& filled, const Matrix& design,
                       const Matrix& gram);
  /// Writes the NumFeatures() feature values at absolute minute `t`
  /// into `phi` (raw pointer so callers can hand out design-matrix rows
  /// or scratch-arena storage directly).
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
