/// \file routed.h
/// \brief Class-routed ensemble — the per-class alternative of §5.2/§5.4.
///
/// §5.2 assigns a natural model to each server class (previous-week
/// average for stable, previous day for daily patterns, previous
/// equivalent day for weekly patterns, a trained model for the rest);
/// §5.4 rejects maintaining "a different model per each class" in favor
/// of one fleet-wide heuristic. This model implements the rejected
/// design so the trade-off is measurable: `Fit` classifies the training
/// series with the §3.2 metrics and delegates to the matching family.

#pragma once

#include <memory>

#include "forecast/model.h"
#include "metrics/classify.h"

namespace seagull {

/// \brief Classify-then-delegate forecaster. Stable servers route to
/// `persistent_week_avg`, daily patterns to `persistent_prev_day`,
/// weekly patterns to `persistent_prev_eq_day`, everything else to
/// `ssa`.
///
/// Note: with the §5.3.1 protocol (one week of training data) the weekly
/// test has no day-7 lag to compare against, so weekly-pattern servers
/// route to the unstable family; give `Fit` two or more weeks to enable
/// the weekly route.
class RoutedForecast final : public ForecastModel {
 public:
  std::string name() const override { return "routed"; }
  Status Fit(const LoadSeries& train) override;
  Result<LoadSeries> Forecast(const LoadSeries& recent, MinuteStamp start,
                              int64_t horizon_minutes) const override;
  Result<Json> Serialize() const override;
  Status Deserialize(const Json& doc) override;

  /// Class the last `Fit` routed on; kNoPattern before fitting.
  ServerClass routed_class() const { return routed_class_; }
  /// Family the delegate belongs to; empty before fitting.
  std::string delegate_family() const;

 private:
  static const char* FamilyFor(ServerClass cls);

  ServerClass routed_class_ = ServerClass::kNoPattern;
  std::unique_ptr<ForecastModel> delegate_;
};

}  // namespace seagull
