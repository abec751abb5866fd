#include "forecast/arima.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "timeseries/resample.h"

namespace seagull {

namespace {

/// Applies `d` rounds of first differencing.
std::vector<double> Difference(std::vector<double> x, int d) {
  for (int round = 0; round < d; ++round) {
    if (x.size() <= 1) {
      x.clear();
      break;
    }
    for (size_t i = x.size() - 1; i >= 1; --i) x[i] -= x[i - 1];
    x.erase(x.begin());
  }
  return x;
}

/// Conditional sum of squares of an ARMA(p,q) with parameters
/// params = [c, phi_1..phi_p, theta_1..theta_q]. `e` is caller-owned
/// residual workspace, so scoring a candidate allocates nothing.
double CssLoss(const std::vector<double>& z, int p, int q,
               const std::vector<double>& params, std::vector<double>* e) {
  const int64_t n = static_cast<int64_t>(z.size());
  const int64_t warm = std::max(p, q);
  e->assign(static_cast<size_t>(n), 0.0);
  const double* zp = z.data();
  const double* pp = params.data();
  double* ep = e->data();
  double sse = 0.0;
  for (int64_t t = warm; t < n; ++t) {
    double pred = pp[0];
    for (int i = 1; i <= p; ++i) {
      pred += pp[i] * zp[t - i];
    }
    for (int j = 1; j <= q; ++j) {
      pred += pp[p + j] * ep[t - j];
    }
    double err = zp[t] - pred;
    ep[t] = err;
    sse += err * err;
  }
  return sse;
}

/// Projects AR coefficients into a (loosely) stationary region.
void ProjectStationary(std::vector<double>* params, int p) {
  double sum = 0.0;
  for (int i = 1; i <= p; ++i) sum += std::fabs((*params)[static_cast<size_t>(i)]);
  if (sum > 0.98) {
    double scale = 0.98 / sum;
    for (int i = 1; i <= p; ++i) (*params)[static_cast<size_t>(i)] *= scale;
  }
}

/// Candidate optimizer: CSS fit of an ARMA(p,q) by Adam on the
/// *analytic* gradient (a numeric one would cost two full residual
/// recursions per parameter per iteration). One fused pass per
/// iteration computes the residuals and, via the sensitivity
/// recursion
///
///   s_t[k] = ∂e_t/∂θ_k = −x_k(t) − Σ_j θ_j · s_{t−j}[k]
///
/// (x_k(t) the direct regressor: 1, z_{t−i}, or e_{t−j}), accumulates
/// dSSE/dθ_k = Σ_t 2·e_t·s_t[k] incrementally. Only the last q+1
/// sensitivity rows are live, so the recursion runs in a small ring
/// buffer and the loop body is branch-free pointer arithmetic. A
/// plateau early-exit stops once the loss stops improving (Adam orbits
/// the optimum instead of settling, so the loss signal is the stable
/// stopping criterion). Returns the SSE at the returned parameters.
double FitCandidateCss(const std::vector<double>& z, int p, int q,
                       int64_t max_iters, double lr,
                       std::vector<double>* params_io,
                       std::vector<double>* e_ws) {
  const int64_t n = static_cast<int64_t>(z.size());
  const int np = 1 + p + q;
  const int64_t warm = std::max(p, q);
  const int64_t ring = q + 1;
  std::vector<double> sens(static_cast<size_t>(ring * np));
  std::vector<double> grad(static_cast<size_t>(np));
  std::vector<double> mom(static_cast<size_t>(np), 0.0);
  std::vector<double> vel(static_cast<size_t>(np), 0.0);
  e_ws->assign(static_cast<size_t>(n), 0.0);
  double* ep = e_ws->data();
  const double* zp = z.data();
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  double pow_b1 = 1.0, pow_b2 = 1.0;
  double prev_sse = std::numeric_limits<double>::infinity();
  int plateau = 0;
  for (int64_t it = 0; it < max_iters; ++it) {
    double* pp = params_io->data();
    std::fill(sens.begin(), sens.end(), 0.0);
    std::fill(grad.begin(), grad.end(), 0.0);
    std::fill(ep, ep + warm, 0.0);
    double* sp = sens.data();
    double* gp = grad.data();
    double sse = 0.0;
    for (int64_t t = warm; t < n; ++t) {
      double pred = pp[0];
      for (int i = 1; i <= p; ++i) pred += pp[i] * zp[t - i];
      for (int j = 1; j <= q; ++j) pred += pp[p + j] * ep[t - j];
      const double err = zp[t] - pred;
      ep[t] = err;
      sse += err * err;
      double* st = sp + (t % ring) * np;
      st[0] = -1.0;
      for (int i = 1; i <= p; ++i) st[i] = -zp[t - i];
      for (int j = 1; j <= q; ++j) st[p + j] = -ep[t - j];
      for (int j = 1; j <= q; ++j) {
        const double th = pp[p + j];
        const double* sj = sp + ((t - j) % ring) * np;
        for (int k = 0; k < np; ++k) st[k] -= th * sj[k];
      }
      const double err2 = 2.0 * err;
      for (int k = 0; k < np; ++k) gp[k] += err2 * st[k];
    }
    // Plateau exit: three consecutive iterations without a relative
    // loss improvement of 1e-8 end the candidate. Deterministic — the
    // decision depends only on the (fixed-order) arithmetic above.
    if (sse >= prev_sse - 1e-8 * std::max(prev_sse, 1e-12)) {
      if (++plateau >= 3) break;
    } else {
      plateau = 0;
    }
    prev_sse = std::min(prev_sse, sse);
    // One joint Adam step over all np parameters.
    pow_b1 *= b1;
    pow_b2 *= b2;
    for (int k = 0; k < np; ++k) {
      const double g = gp[k];
      mom[k] = b1 * mom[k] + (1 - b1) * g;
      vel[k] = b2 * vel[k] + (1 - b2) * g * g;
      const double mh = mom[k] / (1 - pow_b1);
      const double vh = vel[k] / (1 - pow_b2);
      pp[k] -= lr * mh / (std::sqrt(vh) + eps);
    }
    ProjectStationary(params_io, p);
  }
  return CssLoss(z, p, q, *params_io, e_ws);
}

}  // namespace

Status ArimaForecast::Fit(const LoadSeries& train) {
  if (train.CountPresent() < 32) {
    return Status::FailedPrecondition("ARIMA needs training history");
  }
  const LoadSeries filled = InterpolateMissing(train);
  interval_ = filled.interval_minutes();
  // Residual workspace shared by every candidate of the search.
  std::vector<double> e;
  // Candidate parameters are tiny (≤ 8 doubles) but live inside the
  // candidate loop; hoist so each fit allocates them at most once.
  std::vector<double> params;
  // Warm-start lattice: converged parameters of each already-fitted
  // (p,q) candidate at the current d. The layout
  // [c, φ₁..φ_p, θ₁..θ_q] makes seeding (p,q) from (p,q−1) — or
  // (p,0) from (p−1,0) — a prefix copy plus a zero-appended new
  // coefficient, which lands the optimizer near the optimum and lets
  // the plateau exit fire after a handful of iterations.
  std::vector<std::vector<double>> lattice(
      static_cast<size_t>((options_.max_p + 1) * (options_.max_q + 1)));
  auto lattice_at = [&](int lp, int lq) -> std::vector<double>& {
    return lattice[static_cast<size_t>(lp * (options_.max_q + 1) + lq)];
  };

  double best_aic = std::numeric_limits<double>::infinity();
  // pmdarima-style exhaustive order search: this loop is the documented
  // reason ARIMA was excluded from production (§2.1).
  for (int d = 0; d <= options_.max_d; ++d) {
    const std::vector<double> z = Difference(filled.values(), d);
    const int64_t n = static_cast<int64_t>(z.size());
    if (n < 16) continue;
    for (auto& slot : lattice) slot.clear();
    for (int p = 0; p <= options_.max_p; ++p) {
      for (int q = 0; q <= options_.max_q; ++q) {
        if (p == 0 && q == 0 && d == 0) continue;
        const int np = 1 + p + q;
        params.assign(static_cast<size_t>(np), 0.0);
        // Warm start: small positive AR(1)-ish prior.
        if (p > 0) params[1] = 0.5;
        auto seed_from = [&](int sp, int sq) {
          const std::vector<double>& src = lattice_at(sp, sq);
          if (src.empty()) return;
          params.assign(static_cast<size_t>(np), 0.0);
          params[0] = src[0];
          for (int i = 1; i <= std::min(p, sp); ++i) params[i] = src[i];
          for (int j = 1; j <= std::min(q, sq); ++j) {
            params[static_cast<size_t>(p + j)] =
                src[static_cast<size_t>(sp + j)];
          }
        };
        if (q > 0) {
          seed_from(p, q - 1);
        } else if (p > 0) {
          seed_from(p - 1, 0);
        }
        const double sse = FitCandidateCss(z, p, q, options_.iterations,
                                           options_.learning_rate, &params,
                                           &e);
        lattice_at(p, q) = params;
        int64_t eff = n - std::max(p, q);
        if (eff <= np + 1 || sse <= 0) continue;
        double aic = static_cast<double>(eff) *
                         std::log(sse / static_cast<double>(eff)) +
                     2.0 * static_cast<double>(np);
        if (aic < best_aic) {
          best_aic = aic;
          p_ = p;
          d_ = d;
          q_ = q;
          c_ = params[0];
          phi_.assign(params.begin() + 1, params.begin() + 1 + p);
          theta_.assign(params.begin() + 1 + p, params.end());
        }
      }
    }
  }
  if (!std::isfinite(best_aic)) {
    return Status::Internal("ARIMA order search failed");
  }
  aic_ = best_aic;
  fitted_ = true;
  return Status::OK();
}

Result<LoadSeries> ArimaForecast::Forecast(const LoadSeries& recent,
                                           MinuteStamp start,
                                           int64_t horizon_minutes) const {
  if (!fitted_) return Status::FailedPrecondition("ARIMA is not fitted");
  if (start % interval_ != 0 || horizon_minutes % interval_ != 0) {
    return Status::Invalid("forecast range must be grid-aligned");
  }
  // Condition on the last two days of history.
  LoadSeries ctx = InterpolateMissing(
      recent.Slice(start - 2 * kMinutesPerDay, start));
  if (ctx.size() < 8) {
    return Status::FailedPrecondition("ARIMA forecast needs recent history");
  }
  std::vector<double> x = ctx.values();
  std::vector<double> z = Difference(x, d_);
  const int64_t n = static_cast<int64_t>(z.size());
  // The recurrences below look back max(p, q) steps from step n.
  if (std::max(p_, q_) > n) {
    return Status::FailedPrecondition(
        "ARIMA forecast needs more history than its order");
  }

  // Reconstruct in-sample residuals for the MA part.
  const int64_t warm = std::max(p_, q_);
  std::vector<double> e(static_cast<size_t>(n), 0.0);
  for (int64_t t = warm; t < n; ++t) {
    double pred = c_;
    for (int i = 1; i <= p_; ++i) {
      pred += phi_[static_cast<size_t>(i - 1)] * z[static_cast<size_t>(t - i)];
    }
    for (int j = 1; j <= q_; ++j) {
      pred += theta_[static_cast<size_t>(j - 1)] *
              e[static_cast<size_t>(t - j)];
    }
    e[static_cast<size_t>(t)] = z[static_cast<size_t>(t)] - pred;
  }

  const int64_t steps = horizon_minutes / interval_;
  std::vector<double> zf = z, ef = e;
  std::vector<double> out(static_cast<size_t>(steps), 0.0);
  // Last levels for inverting the differencing.
  double last_level = x.empty() ? 0.0 : x.back();
  for (int64_t s = 0; s < steps; ++s) {
    int64_t t = n + s;
    double pred = c_;
    for (int i = 1; i <= p_; ++i) {
      int64_t idx = t - i;
      double zv = idx < static_cast<int64_t>(zf.size())
                      ? zf[static_cast<size_t>(idx)]
                      : 0.0;
      pred += phi_[static_cast<size_t>(i - 1)] * zv;
    }
    for (int j = 1; j <= q_; ++j) {
      int64_t idx = t - j;
      double ev = idx < static_cast<int64_t>(ef.size())
                      ? ef[static_cast<size_t>(idx)]
                      : 0.0;
      pred += theta_[static_cast<size_t>(j - 1)] * ev;
    }
    zf.push_back(pred);
    ef.push_back(0.0);  // expected future shocks are zero
    double level = d_ == 0 ? pred : last_level + pred;
    if (d_ > 0) last_level = level;
    out[static_cast<size_t>(s)] = std::clamp(level, 0.0, 200.0);
  }
  return LoadSeries::Make(start, interval_, std::move(out));
}

Result<Json> ArimaForecast::Serialize() const {
  if (!fitted_) return Status::FailedPrecondition("serialize before fit");
  Json doc = Json::MakeObject();
  doc["model"] = name();
  doc["interval"] = interval_;
  doc["p"] = p_;
  doc["d"] = d_;
  doc["q"] = q_;
  doc["c"] = c_;
  doc["aic"] = aic_;
  Json phi = Json::MakeArray();
  for (double v : phi_) phi.Append(v);
  doc["phi"] = std::move(phi);
  Json theta = Json::MakeArray();
  for (double v : theta_) theta.Append(v);
  doc["theta"] = std::move(theta);
  return doc;
}

Status ArimaForecast::Deserialize(const Json& doc) {
  // A zero interval would divide by zero in Forecast.
  fitted_ = false;
  SEAGULL_ASSIGN_OR_RETURN(interval_,
                           GetBoundedInt64(doc, "interval", 1, kMinutesPerDay));
  SEAGULL_ASSIGN_OR_RETURN(int64_t p,
                           GetBoundedInt64(doc, "p", 0, kMaxArimaOrder));
  SEAGULL_ASSIGN_OR_RETURN(int64_t d,
                           GetBoundedInt64(doc, "d", 0, kMaxArimaOrder));
  SEAGULL_ASSIGN_OR_RETURN(int64_t q,
                           GetBoundedInt64(doc, "q", 0, kMaxArimaOrder));
  SEAGULL_ASSIGN_OR_RETURN(c_, doc.GetNumber("c"));
  SEAGULL_ASSIGN_OR_RETURN(aic_, doc.GetNumber("aic"));
  p_ = static_cast<int>(p);
  d_ = static_cast<int>(d);
  q_ = static_cast<int>(q);
  auto load = [&doc](const char* key, std::vector<double>* w) -> Status {
    const Json& arr = doc[key];
    if (!arr.is_array()) return Status::Invalid("missing coefficient array");
    w->clear();
    for (const auto& v : arr.AsArray()) {
      if (!v.is_number()) return Status::Invalid("non-numeric coefficient");
      w->push_back(v.AsDouble());
    }
    return Status::OK();
  };
  SEAGULL_RETURN_NOT_OK(load("phi", &phi_));
  SEAGULL_RETURN_NOT_OK(load("theta", &theta_));
  if (static_cast<int>(phi_.size()) != p_ ||
      static_cast<int>(theta_.size()) != q_) {
    return Status::Invalid("ARIMA order/coefficient mismatch");
  }
  fitted_ = true;
  return Status::OK();
}

}  // namespace seagull
