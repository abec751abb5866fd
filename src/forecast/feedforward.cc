#include "forecast/feedforward.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "forecast/linalg.h"
#include "timeseries/resample.h"

namespace seagull {

namespace {

/// Average-pools `raw` (`raw_n` values, one per raw tick) into `bins`
/// equal bins written to `out`.
void PoolInto(const double* raw, int64_t raw_n, int64_t bins, double* out) {
  const int64_t per = raw_n / bins;
  for (int64_t b = 0; b < bins; ++b) {
    double sum = 0.0;
    for (int64_t k = 0; k < per; ++k) {
      sum += raw[b * per + k];
    }
    out[b] = sum / static_cast<double>(per);
  }
}

/// Vector-returning wrapper for the inference path.
std::vector<double> Pool(const std::vector<double>& raw, int64_t bins) {
  std::vector<double> out(static_cast<size_t>(bins), 0.0);
  PoolInto(raw.data(), static_cast<int64_t>(raw.size()), bins, out.data());
  return out;
}

}  // namespace

Status FeedForwardForecast::Fit(const LoadSeries& train) {
  const LoadSeries filled = InterpolateMissing(train);
  interval_ = filled.interval_minutes();
  const int64_t ticks_day = filled.ticks_per_day();
  const int64_t in_dim = options_.pooled_per_day;
  const int64_t out_dim = options_.pooled_per_day;
  const int64_t hidden = options_.hidden;
  if (ticks_day % in_dim != 0) {
    return Status::Invalid("pooled_per_day must divide samples per day");
  }
  if (filled.size() < 2 * ticks_day + 1) {
    return Status::FailedPrecondition(
        "feed-forward training needs at least two days of history");
  }

  // Build sliding (context day -> next day) training pairs, pooled
  // straight into the mini-batches of the epoch loop below: batch bi
  // holds pairs [bi·kBatch, (bi+1)·kBatch) in order, one row per pair,
  // so the loop streams them with raw row pointers.
  constexpr int64_t kBatch = 32;
  int64_t m = 0;
  for (int64_t off = 0; off + 2 * ticks_day <= filled.size();
       off += options_.stride) {
    ++m;
  }
  if (m == 0) return Status::FailedPrecondition("no training windows");
  std::vector<Matrix> xb, tb;
  for (int64_t lo = 0; lo < m; lo += kBatch) {
    xb.emplace_back(std::min(kBatch, m - lo), in_dim);
    tb.emplace_back(std::min(kBatch, m - lo), out_dim);
  }
  {
    std::vector<double> raw(static_cast<size_t>(2 * ticks_day));
    double* ctx = raw.data();
    double* nxt = raw.data() + ticks_day;
    int64_t row = 0;
    for (int64_t off = 0; off + 2 * ticks_day <= filled.size();
         off += options_.stride, ++row) {
      for (int64_t i = 0; i < ticks_day; ++i) {
        ctx[i] = filled.ValueAt(off + i) / scale_;
        nxt[i] = filled.ValueAt(off + ticks_day + i) / scale_;
      }
      const size_t bi = static_cast<size_t>(row / kBatch);
      PoolInto(ctx, ticks_day, in_dim, xb[bi].Row(row % kBatch));
      PoolInto(nxt, ticks_day, out_dim, tb[bi].Row(row % kBatch));
    }
  }

  // He-initialize the [w1|b1|w2|b2] parameter block (Rng(seed), fixed
  // draw order) beside its zeroed Adam state (mom, vel).
  const size_t np = static_cast<size_t>(hidden * in_dim + hidden +
                                        out_dim * hidden + out_dim);
  std::vector<double> params(np), mom(np, 0.0), vel(np, 0.0);
  double* w1 = params.data();
  double* b1 = w1 + hidden * in_dim;
  double* w2 = b1 + hidden;
  double* b2 = w2 + out_dim * hidden;
  Rng rng(options_.seed);
  auto init = [&rng](double* w, int64_t n, double fan_in) {
    double s = std::sqrt(2.0 / fan_in);
    for (int64_t i = 0; i < n; ++i) w[i] = rng.Gaussian(0.0, s);
  };
  init(w1, hidden * in_dim, static_cast<double>(in_dim));
  std::fill(b1, b1 + hidden, 0.0);
  init(w2, out_dim * hidden, static_cast<double>(hidden));
  std::fill(b2, b2 + out_dim, 0.0);

  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  const double lr = options_.learning_rate;
  // Adam step over the concatenated parameter block, with gradients
  // scaled by `inv_n` (one over the batch size).
  int64_t step = 0;
  auto adam_step = [&](double inv_n, const double* g_w1, const double* g_b1,
                       const double* g_w2, const double* g_b2) {
    ++step;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
    size_t k = 0;
    auto update = [&](double* w, const double* g, int64_t count) {
      for (int64_t i = 0; i < count; ++i, ++k) {
        double grad = g[i] * inv_n;
        mom[k] = beta1 * mom[k] + (1 - beta1) * grad;
        vel[k] = beta2 * vel[k] + (1 - beta2) * grad * grad;
        w[i] -= lr * (mom[k] / bc1) / (std::sqrt(vel[k] / bc2) + eps);
      }
    };
    update(w1, g_w1, hidden * in_dim);
    update(b1, g_b1, hidden);
    update(w2, g_w2, out_dim * hidden);
    update(b2, g_b2, out_dim);
  };

  // Mini-batch epochs through the batched matmul kernels: each batch
  // moves through the layers as one matrix product —
  //   Hpre = Xb·w1ᵀ (+b1), H = relu(Hpre), dY = H·w2ᵀ (+b2) − Tb,
  //   gW2 = dYᵀ·H, dH = dY·w2 masked by Hpre>0, gW1 = dHᵀ·Xb,
  // with biases as column sums. Per-pass FLOPs match a per-sample
  // full-batch loop; the win is optimization *rate*: fixed contiguous
  // kBatch-sized Adam steps reach the full-batch loss basin in a
  // fraction of the epochs, and the plateau exit (like the ARIMA CSS
  // plateau) stops the loop there. Batch boundaries, order, and the
  // exit epoch depend only on the options, so the trajectory is
  // deterministic.
  // The batch products, reshaped in place by each batch's kernels.
  Matrix hpre, hrelu, dy, dhm, g_w1m, g_w2m;
  std::vector<double> g_b1v(static_cast<size_t>(hidden));
  std::vector<double> g_b2v(static_cast<size_t>(out_dim));
  // Convergence exit: once per-epoch improvement falls below 0.03% of
  // the *initial* loss — the problem's own scale — for several
  // consecutive epochs, further epochs move the forecast by less than
  // the telemetry's noise floor. (Relative-to-current-loss tests never
  // fire here: mini-batch Adam keeps shaving ~1% of an
  // already-negligible loss per epoch.)
  double initial_loss = 0.0;
  double best_loss = 0.0;
  int plateau = 0;
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    double loss = 0.0;
    for (size_t bi = 0; bi < xb.size(); ++bi) {
      const Matrix& x = xb[bi];
      const Matrix& t = tb[bi];
      const int64_t bs = x.rows();
      MatMulNT(x, w1, hidden, &hpre);
      hrelu.Resize(bs, hidden);
      for (int64_t s = 0; s < bs; ++s) {
        double* pr = hpre.Row(s);
        double* hr = hrelu.Row(s);
        for (int64_t j = 0; j < hidden; ++j) {
          const double a = pr[j] + b1[j];
          pr[j] = a;
          hr[j] = a > 0 ? a : 0.0;
        }
      }
      MatMulNT(hrelu, w2, out_dim, &dy);
      for (int64_t s = 0; s < bs; ++s) {
        double* dr = dy.Row(s);
        const double* tr = t.Row(s);
        for (int64_t o = 0; o < out_dim; ++o) {
          const double d = dr[o] + b2[o] - tr[o];
          dr[o] = d;
          loss += d * d;
        }
      }
      // Output-layer gradients.
      std::fill(g_b2v.begin(), g_b2v.end(), 0.0);
      for (int64_t s = 0; s < bs; ++s) {
        const double* dr = dy.Row(s);
        for (int64_t o = 0; o < out_dim; ++o) {
          g_b2v[static_cast<size_t>(o)] += dr[o];
        }
      }
      MatMulTN(dy, hrelu, &g_w2m);
      // Hidden deltas, masked by the pre-activation sign.
      MatMulNN(dy, w2, hidden, &dhm);
      std::fill(g_b1v.begin(), g_b1v.end(), 0.0);
      for (int64_t s = 0; s < bs; ++s) {
        const double* pr = hpre.Row(s);
        double* dr = dhm.Row(s);
        for (int64_t j = 0; j < hidden; ++j) {
          if (pr[j] <= 0) {
            dr[j] = 0.0;
          } else {
            g_b1v[static_cast<size_t>(j)] += dr[j];
          }
        }
      }
      MatMulTN(dhm, x, &g_w1m);
      adam_step(1.0 / static_cast<double>(bs), g_w1m.Row(0),
                g_b1v.data(), g_w2m.Row(0), g_b2v.data());
    }
    train_loss_ = loss / static_cast<double>(m * out_dim);
    if (epoch == 0) {
      initial_loss = train_loss_;
      best_loss = train_loss_;
    } else if (best_loss - train_loss_ > 3e-4 * initial_loss) {
      best_loss = train_loss_;
      plateau = 0;
    } else {
      best_loss = std::min(best_loss, train_loss_);
      if (++plateau >= 6) break;
    }
  }
  w1_.assign(w1, b1);
  b1_.assign(b1, w2);
  w2_.assign(w2, b2);
  b2_.assign(b2, b2 + out_dim);
  fitted_ = true;
  return Status::OK();
}

std::vector<double> FeedForwardForecast::Apply(
    const std::vector<double>& input) const {
  const int64_t in_dim = options_.pooled_per_day;
  const int64_t out_dim = options_.pooled_per_day;
  const int64_t hidden = options_.hidden;
  std::vector<double> h(static_cast<size_t>(hidden));
  for (int64_t j = 0; j < hidden; ++j) {
    double a = b1_[static_cast<size_t>(j)];
    for (int64_t i = 0; i < in_dim; ++i) {
      a += w1_[static_cast<size_t>(j * in_dim + i)] *
           input[static_cast<size_t>(i)];
    }
    h[static_cast<size_t>(j)] = a > 0 ? a : 0.0;
  }
  std::vector<double> y(static_cast<size_t>(out_dim));
  for (int64_t o = 0; o < out_dim; ++o) {
    double a = b2_[static_cast<size_t>(o)];
    for (int64_t j = 0; j < hidden; ++j) {
      a += w2_[static_cast<size_t>(o * hidden + j)] *
           h[static_cast<size_t>(j)];
    }
    y[static_cast<size_t>(o)] = a;
  }
  return y;
}

Result<LoadSeries> FeedForwardForecast::Forecast(
    const LoadSeries& recent, MinuteStamp start,
    int64_t horizon_minutes) const {
  if (!fitted_) return Status::FailedPrecondition("network is not fitted");
  const int64_t interval = interval_;
  if (start % interval != 0 || horizon_minutes % interval != 0) {
    return Status::Invalid("forecast range must be grid-aligned");
  }
  const int64_t ticks_day = TicksPerDay(interval);
  LoadSeries ctx_series = InterpolateMissing(
      recent.Slice(start - kMinutesPerDay, start));
  if (ctx_series.size() < ticks_day) {
    return Status::FailedPrecondition("need one day of context");
  }
  std::vector<double> ctx(static_cast<size_t>(ticks_day));
  for (int64_t i = 0; i < ticks_day; ++i) {
    double v = ctx_series.ValueAtTime(start - (ticks_day - i) * interval);
    ctx[static_cast<size_t>(i)] = IsMissing(v) ? 0.0 : v / scale_;
  }

  const int64_t steps = horizon_minutes / interval;
  std::vector<double> out;
  out.reserve(static_cast<size_t>(steps));
  // Roll forward one day at a time, feeding predictions back for
  // multi-day horizons.
  while (static_cast<int64_t>(out.size()) < steps) {
    std::vector<double> pooled = Pool(ctx, options_.pooled_per_day);
    std::vector<double> pred = Apply(pooled);
    // Upsample pooled predictions back to the raw grid (step function —
    // the LL-window metrics average over windows anyway).
    const int64_t per = ticks_day / options_.pooled_per_day;
    std::vector<double> day(static_cast<size_t>(ticks_day));
    for (int64_t i = 0; i < ticks_day; ++i) {
      double v = pred[static_cast<size_t>(i / per)] * scale_;
      day[static_cast<size_t>(i)] = std::clamp(v, 0.0, 200.0);
    }
    for (int64_t i = 0;
         i < ticks_day && static_cast<int64_t>(out.size()) < steps; ++i) {
      out.push_back(day[static_cast<size_t>(i)]);
    }
    for (int64_t i = 0; i < ticks_day; ++i) {
      ctx[static_cast<size_t>(i)] = day[static_cast<size_t>(i)] / scale_;
    }
  }
  return LoadSeries::Make(start, interval, std::move(out));
}

Result<Json> FeedForwardForecast::Serialize() const {
  if (!fitted_) return Status::FailedPrecondition("serialize before fit");
  Json doc = Json::MakeObject();
  doc["model"] = name();
  doc["interval"] = interval_;
  doc["pooled"] = options_.pooled_per_day;
  doc["hidden"] = options_.hidden;
  doc["scale"] = scale_;
  auto dump = [](const std::vector<double>& w) {
    Json arr = Json::MakeArray();
    for (double v : w) arr.Append(v);
    return arr;
  };
  doc["w1"] = dump(w1_);
  doc["b1"] = dump(b1_);
  doc["w2"] = dump(w2_);
  doc["b2"] = dump(b2_);
  return doc;
}

Status FeedForwardForecast::Deserialize(const Json& doc) {
  // Forecast divides by the interval and by the samples per pooled bin,
  // and Apply indexes every weight the declared shape names.
  fitted_ = false;
  SEAGULL_ASSIGN_OR_RETURN(interval_,
                           GetBoundedInt64(doc, "interval", 1, kMinutesPerDay));
  const int64_t ticks_day = TicksPerDay(interval_);
  SEAGULL_ASSIGN_OR_RETURN(const int64_t pooled,
                           GetBoundedInt64(doc, "pooled", 1, ticks_day));
  if (ticks_day % pooled != 0) {
    return Status::Invalid("pooled must divide the samples per day");
  }
  SEAGULL_ASSIGN_OR_RETURN(
      const int64_t hidden,
      GetBoundedInt64(doc, "hidden", 1, kMaxFeedForwardHidden));
  SEAGULL_ASSIGN_OR_RETURN(scale_, doc.GetNumber("scale"));
  options_.pooled_per_day = pooled;
  options_.hidden = hidden;
  auto load = [&doc](const char* key, int64_t count,
                     std::vector<double>* w) -> Status {
    const Json& arr = doc[key];
    if (!arr.is_array()) return Status::Invalid("missing weights");
    if (static_cast<int64_t>(arr.AsArray().size()) != count) {
      return Status::Invalid(StringPrintf(
          "feedforward %s holds %zu weights, its shape needs %lld", key,
          arr.AsArray().size(), static_cast<long long>(count)));
    }
    w->clear();
    for (const auto& v : arr.AsArray()) {
      if (!v.is_number()) return Status::Invalid("non-numeric weight");
      w->push_back(v.AsDouble());
    }
    return Status::OK();
  };
  SEAGULL_RETURN_NOT_OK(load("w1", hidden * pooled, &w1_));
  SEAGULL_RETURN_NOT_OK(load("b1", hidden, &b1_));
  SEAGULL_RETURN_NOT_OK(load("w2", pooled * hidden, &w2_));
  SEAGULL_RETURN_NOT_OK(load("b2", pooled, &b2_));
  fitted_ = true;
  return Status::OK();
}

}  // namespace seagull
