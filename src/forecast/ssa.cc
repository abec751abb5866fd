#include "forecast/ssa.h"

#include <algorithm>
#include <cmath>

#include "forecast/linalg.h"
#include "timeseries/resample.h"

namespace seagull {

Status SsaForecast::Fit(const LoadSeries& train) {
  if (train.CountPresent() < 4) {
    return Status::FailedPrecondition("SSA needs training history");
  }
  const LoadSeries filled = InterpolateMissing(train);
  interval_ = filled.interval_minutes();
  const int64_t n = filled.size();
  int64_t L = options_.window;
  if (2 * L - 1 > n) L = (n + 1) / 2;
  if (L < 3) return Status::FailedPrecondition("series too short for SSA");

  mean_ = filled.Mean();

  // The recurrence needs only the lag-space singular vectors — the
  // eigenvectors of the L×L lag covariance C = AᵀA where A is the K×L
  // trajectory matrix A[i][j] = x_{i+j}. The Hankel structure lets
  // BuildLagGram assemble C in O(n·L) (one prefix-sum pass per lag)
  // instead of the O(K·L²) materialized product, and the
  // eigendecomposition is O(L³) — far below a full SVD.
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = filled.ValueAt(i) - mean_;
  }
  Matrix cov;
  BuildLagGram(x.data(), n, L, &cov);
  Matrix vectors;
  std::vector<double> values;
  SEAGULL_RETURN_NOT_OK(SymmetricEigenInPlace(&cov, &vectors, &values));

  // Retain leading components by energy (eigenvalues of C are squared
  // singular values of A).
  double total = 0.0;
  for (double v : values) total += std::max(v, 0.0);
  if (total <= 0.0) {
    // Perfectly flat series: the mean is the whole forecast.
    lrf_.assign(static_cast<size_t>(L - 1), 0.0);
    rank_ = 0;
    fitted_ = true;
    return Status::OK();
  }
  int64_t r = 0;
  double acc = 0.0;
  while (r < static_cast<int64_t>(values.size()) &&
         r < options_.max_components &&
         acc / total < options_.energy_threshold) {
    acc += std::max(values[static_cast<size_t>(r)], 0.0);
    ++r;
  }
  rank_ = std::max<int64_t>(r, 1);

  // Linear recurrence from the retained lag-space eigenvectors:
  // nu2 = sum of squared last components; R = (1/(1-nu2)) * sum pi_i u_i.
  double nu2 = 0.0;
  for (int64_t i = 0; i < rank_; ++i) {
    double pi = vectors.At(L - 1, i);
    nu2 += pi * pi;
  }
  if (nu2 >= 1.0 - 1e-9) {
    // Degenerate vertical component; drop trailing components until the
    // recurrence is well-defined.
    while (rank_ > 1 && nu2 >= 1.0 - 1e-9) {
      double pi = vectors.At(L - 1, rank_ - 1);
      nu2 -= pi * pi;
      --rank_;
    }
    if (nu2 >= 1.0 - 1e-9) {
      return Status::Internal("SSA recurrence is degenerate");
    }
  }
  lrf_.assign(static_cast<size_t>(L - 1), 0.0);
  for (int64_t i = 0; i < rank_; ++i) {
    double pi = vectors.At(L - 1, i);
    for (int64_t j = 0; j < L - 1; ++j) {
      lrf_[static_cast<size_t>(j)] += pi * vectors.At(j, i);
    }
  }
  for (auto& c : lrf_) c /= (1.0 - nu2);
  fitted_ = true;
  return Status::OK();
}

Result<LoadSeries> SsaForecast::Forecast(const LoadSeries& recent,
                                         MinuteStamp start,
                                         int64_t horizon_minutes) const {
  if (!fitted_) return Status::FailedPrecondition("SSA model is not fitted");
  if (recent.empty()) {
    return Status::FailedPrecondition("SSA forecast needs recent history");
  }
  const int64_t interval = interval_;
  if (start % interval != 0 || horizon_minutes % interval != 0) {
    return Status::Invalid("forecast range must be grid-aligned");
  }
  const int64_t lag = static_cast<int64_t>(lrf_.size());
  const int64_t steps = horizon_minutes / interval;

  // Seed the recurrence with the last `lag` de-meaned samples before
  // `start`.
  LoadSeries context =
      InterpolateMissing(recent.Slice(start - (lag + 4) * interval, start));
  std::vector<double> window(static_cast<size_t>(lag), 0.0);
  for (int64_t j = 0; j < lag; ++j) {
    double v = context.ValueAtTime(start - (lag - j) * interval);
    window[static_cast<size_t>(j)] = IsMissing(v) ? 0.0 : v - mean_;
  }

  std::vector<double> out(static_cast<size_t>(steps), 0.0);
  const double clamp_hi = 200.0;  // numeric guard; load is a percentage
  for (int64_t t = 0; t < steps; ++t) {
    double next = Dot(lrf_, window);
    if (!std::isfinite(next)) next = 0.0;
    next = std::clamp(next, -clamp_hi, clamp_hi);
    out[static_cast<size_t>(t)] = std::max(0.0, next + mean_);
    // Shift the lag window.
    if (lag > 0) {
      std::rotate(window.begin(), window.begin() + 1, window.end());
      window.back() = next;
    }
  }
  return LoadSeries::Make(start, interval, std::move(out));
}

Result<Json> SsaForecast::Serialize() const {
  if (!fitted_) return Status::FailedPrecondition("serialize before fit");
  Json doc = Json::MakeObject();
  doc["model"] = name();
  doc["mean"] = mean_;
  doc["interval"] = interval_;
  doc["rank"] = rank_;
  Json coeffs = Json::MakeArray();
  for (double c : lrf_) coeffs.Append(c);
  doc["lrf"] = std::move(coeffs);
  return doc;
}

Status SsaForecast::Deserialize(const Json& doc) {
  // A zero interval would divide by zero in Forecast.
  fitted_ = false;
  SEAGULL_ASSIGN_OR_RETURN(mean_, doc.GetNumber("mean"));
  SEAGULL_ASSIGN_OR_RETURN(interval_,
                           GetBoundedInt64(doc, "interval", 1, kMinutesPerDay));
  if (!doc["lrf"].is_array()) return Status::Invalid("missing lrf array");
  lrf_.clear();
  for (const auto& c : doc["lrf"].AsArray()) {
    if (!c.is_number()) return Status::Invalid("non-numeric lrf entry");
    lrf_.push_back(c.AsDouble());
  }
  // Fit keeps at most one component per lag dimension, one more than
  // the recurrence has coefficients.
  SEAGULL_ASSIGN_OR_RETURN(
      rank_, GetBoundedInt64(doc, "rank", 0,
                             static_cast<int64_t>(lrf_.size()) + 1));
  fitted_ = true;
  return Status::OK();
}

}  // namespace seagull
