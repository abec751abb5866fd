/// \file feedforward.h
/// \brief Feed-forward neural forecaster — the GluonTS analog.
///
/// The paper trains GluonTS's "simple feed forward estimator" (§5.1).
/// This is the same architecture built on the in-repo math: the last day
/// of load, average-pooled to a coarse context vector, goes through a
/// ReLU hidden layer that directly emits the next day (direct
/// multi-horizon), trained with Adam on sliding windows of the history.

#pragma once

#include "common/random.h"
#include "forecast/model.h"

namespace seagull {

/// Widest hidden layer a model document may declare (the default is 32).
inline constexpr int64_t kMaxFeedForwardHidden = 1 << 16;

/// \brief Network and training hyper-parameters.
struct FeedForwardOptions {
  /// Context and prediction lengths in samples of the *pooled* grid.
  int64_t pooled_per_day = 24;
  /// Hidden layer width.
  int64_t hidden = 32;
  /// Adam epochs over the sliding-window training set.
  int64_t epochs = 160;
  /// Sliding-window stride over the history, in raw samples.
  int64_t stride = 12;
  double learning_rate = 0.005;
  uint64_t seed = 7;
};

/// \brief One-hidden-layer direct multi-horizon forecaster.
class FeedForwardForecast final : public ForecastModel {
 public:
  explicit FeedForwardForecast(FeedForwardOptions options = {})
      : options_(options) {}

  std::string name() const override { return "feedforward"; }
  Status Fit(const LoadSeries& train) override;
  Result<LoadSeries> Forecast(const LoadSeries& recent, MinuteStamp start,
                              int64_t horizon_minutes) const override;
  Result<Json> Serialize() const override;
  Status Deserialize(const Json& doc) override;

  /// Final training loss (mean squared error on normalized load).
  double train_loss() const { return train_loss_; }

 private:
  /// Forward pass on one pooled, normalized context vector.
  std::vector<double> Apply(const std::vector<double>& input) const;

  FeedForwardOptions options_;
  bool fitted_ = false;
  int64_t interval_ = kServerIntervalMinutes;
  double scale_ = 100.0;  // load normalization divisor
  // Parameters: w1 [hidden x in], b1 [hidden], w2 [out x hidden], b2 [out].
  std::vector<double> w1_, b1_, w2_, b2_;
  double train_loss_ = 0.0;
};

}  // namespace seagull
