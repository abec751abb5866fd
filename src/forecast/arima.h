/// \file arima.h
/// \brief ARIMA(p,d,q) baseline with pmdarima-style order search.
///
/// The paper evaluates ARIMA and excludes it: "it searches the optimal
/// values of six parameters per server ... fitting may take up to 3 hours
/// per server" (§2.1, §5.3.3). This implementation reproduces that cost
/// structure — a grid search over (p, d, q) with an iterative
/// conditional-sum-of-squares fit per candidate and AIC selection — at a
/// scale a benchmark can still execute.

#pragma once

#include "forecast/model.h"

namespace seagull {

/// Largest p, d or q a model document may declare (the order search
/// defaults to p, q <= 3 and d <= 1).
inline constexpr int kMaxArimaOrder = 1000;

/// \brief Order-search bounds and optimizer parameters.
struct ArimaOptions {
  int max_p = 3;
  int max_d = 1;
  int max_q = 3;
  /// Adam iterations per (p,d,q) candidate.
  int64_t iterations = 150;
  double learning_rate = 0.02;
};

/// \brief Grid-searched ARIMA forecaster.
class ArimaForecast final : public ForecastModel {
 public:
  explicit ArimaForecast(ArimaOptions options = {}) : options_(options) {}

  std::string name() const override { return "arima"; }
  Status Fit(const LoadSeries& train) override;
  Result<LoadSeries> Forecast(const LoadSeries& recent, MinuteStamp start,
                              int64_t horizon_minutes) const override;
  Result<Json> Serialize() const override;
  Status Deserialize(const Json& doc) override;

  int order_p() const { return p_; }
  int order_d() const { return d_; }
  int order_q() const { return q_; }
  double aic() const { return aic_; }

 private:
  ArimaOptions options_;
  bool fitted_ = false;
  int64_t interval_ = kServerIntervalMinutes;
  int p_ = 0, d_ = 0, q_ = 0;
  double c_ = 0.0;
  std::vector<double> phi_;    // AR coefficients
  std::vector<double> theta_;  // MA coefficients
  double aic_ = 0.0;
};

}  // namespace seagull
