#include "forecast/additive.h"

#include <algorithm>
#include <cmath>

#include "forecast/scratch.h"
#include "timeseries/resample.h"

namespace seagull {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}

int64_t AdditiveForecast::NumFeatures() const {
  // intercept + base slope + changepoint slopes + 2 per Fourier term +
  // one shared holiday indicator when holidays are configured.
  return 2 + options_.changepoints +
         2 * (options_.daily_order + options_.weekly_order) +
         (options_.holidays.empty() ? 0 : 1);
}

bool AdditiveForecast::IsHoliday(int64_t day_index) const {
  for (int64_t holiday : options_.holidays) {
    if (holiday == day_index) return true;
  }
  return false;
}

namespace {

/// Writes the 2·order Fourier features sin(o·a₁), cos(o·a₁) for
/// o = 1..order, expanding the harmonics by the angle-addition
/// recurrence sin((o+1)a) = sin(oa)cos(a) + cos(oa)sin(a) — two libm
/// trig calls per block instead of 2·order — which is what makes
/// design-matrix construction cheap enough to matter once the
/// optimizer itself runs in Gram space.
int64_t WriteFourierBlock(double phase, int64_t order, double* phi) {
  int64_t k = 0;
  const double a1 = kTwoPi * phase;
  const double s1 = std::sin(a1);
  const double c1 = std::cos(a1);
  double s = 0.0, c = 1.0;  // sin(0·a₁), cos(0·a₁)
  for (int64_t o = 1; o <= order; ++o) {
    const double ns = s * c1 + c * s1;
    const double nc = c * c1 - s * s1;
    s = ns;
    c = nc;
    phi[k++] = s;
    phi[k++] = c;
  }
  return k;
}

}  // namespace

void AdditiveForecast::FeaturesAt(MinuteStamp t, double* phi) const {
  const double span =
      std::max<double>(1.0, static_cast<double>(train_end_ - train_start_));
  const double x = static_cast<double>(t - train_start_) / span;  // scaled time
  int64_t k = 0;
  phi[k++] = 1.0;  // intercept
  phi[k++] = x;    // base slope
  for (int64_t c = 0; c < options_.changepoints; ++c) {
    double cp = static_cast<double>(c + 1) /
                static_cast<double>(options_.changepoints + 1);
    phi[k++] = x > cp ? (x - cp) : 0.0;
  }
  const double day_phase =
      static_cast<double>(MinuteOfDay(t)) / static_cast<double>(kMinutesPerDay);
  k += WriteFourierBlock(day_phase, options_.daily_order, phi + k);
  const double week_phase = static_cast<double>(t - StartOfWeek(t)) /
                            static_cast<double>(kMinutesPerWeek);
  k += WriteFourierBlock(week_phase, options_.weekly_order, phi + k);
  if (!options_.holidays.empty()) {
    phi[k++] = IsHoliday(DayIndex(t)) ? 1.0 : 0.0;
  }
}

void AdditiveForecast::SetTrainRange(const LoadSeries& filled) {
  interval_ = filled.interval_minutes();
  train_start_ = filled.start();
  train_end_ = filled.end();
}

Status AdditiveForecast::Fit(const LoadSeries& train) {
  if (train.CountPresent() < 8) {
    return Status::FailedPrecondition("additive model needs history");
  }
  const LoadSeries filled = InterpolateMissing(train);
  SetTrainRange(filled);

  const int64_t n = filled.size();
  const int64_t p = NumFeatures();

  // Precompute the design matrix once; the optimizer then iterates
  // full-batch gradient steps (the MAP loop that dominates Prophet's
  // training cost). The matrix was an n-vector of p-vectors — one heap
  // allocation per sample and a pointer chase per row; it is now one
  // contiguous scratch-arena matrix streamed by row pointer.
  KernelScratch& scratch = KernelScratch::Local();
  Matrix& design = scratch.Mat(kscratch::kMatAddDesign, n, p);
  for (int64_t i = 0; i < n; ++i) {
    FeaturesAt(filled.TimeAt(i), design.Row(i));
  }
  // Collapse the design into its p×p Gram via the SYRK-style AtA
  // kernel; every optimizer iteration then costs O(p²), not O(n·p).
  Matrix& gram = scratch.Mat(kscratch::kMatAddGram, 0, 0);
  gram = AtA(design);
  return FitWithDesign(filled, design, gram);
}

Status AdditiveForecast::FitWithDesign(const LoadSeries& filled,
                                       const Matrix& design,
                                       const Matrix& gram) {
  const int64_t n = filled.size();
  const int64_t p = NumFeatures();
  coef_.assign(static_cast<size_t>(p), 0.0);
  coef_[0] = filled.Mean();  // warm-start the intercept

  KernelScratch& scratch = KernelScratch::Local();
  std::vector<double>& y =
      scratch.Vec(kscratch::kAddTargets, static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    y[static_cast<size_t>(i)] = filled.ValueAt(i);
  }
  std::vector<double>& grad =
      scratch.Vec(kscratch::kAddGrad, static_cast<size_t>(p));
  const double inv_n = 1.0 / static_cast<double>(n);
  double lr = options_.learning_rate;
  double prev_loss = 0.0;
  // Gram-space iteration: with G = AᵀA, b = Aᵀy and yᵀy precomputed,
  //   ‖A·c − y‖² = cᵀGc − 2bᵀc + yᵀy   and   ∇ = Gc − b,
  // so each step touches p² doubles instead of n·p.
  std::vector<double>& b =
      scratch.Vec(kscratch::kAddRhs, static_cast<size_t>(p));
  {
    std::vector<double> rhs = TransposeMatVec(design, y);
    std::copy(rhs.begin(), rhs.end(), b.begin());
  }
  const double yty = Dot(y.data(), y.data(), n);
  std::vector<double>& gc =
      scratch.Vec(kscratch::kAddGramCoef, static_cast<size_t>(p));
  for (int64_t it = 0; it < options_.iterations; ++it) {
    for (int64_t j = 0; j < p; ++j) {
      gc[static_cast<size_t>(j)] = Dot(gram.Row(j), coef_.data(), p);
    }
    double loss = Dot(gc.data(), coef_.data(), p) -
                  2.0 * Dot(b.data(), coef_.data(), p) + yty;
    for (int64_t j = 0; j < p; ++j) {
      grad[static_cast<size_t>(j)] =
          gc[static_cast<size_t>(j)] - b[static_cast<size_t>(j)];
    }
    // Ridge prior on changepoint slopes only.
    for (int64_t c = 0; c < options_.changepoints; ++c) {
      size_t j = static_cast<size_t>(2 + c);
      grad[j] += options_.changepoint_penalty * coef_[j];
    }
    for (int64_t j = 0; j < p; ++j) {
      coef_[static_cast<size_t>(j)] -=
          lr * grad[static_cast<size_t>(j)] * inv_n;
    }
    loss *= inv_n;
    // Crude line-search: back off when the loss increases.
    if (it > 0 && loss > prev_loss) lr *= 0.5;
    prev_loss = loss;
  }
  residual_sigma_ = std::sqrt(std::max(prev_loss, 0.0));
  fitted_ = true;
  return Status::OK();
}

Result<LoadSeries> AdditiveForecast::Forecast(const LoadSeries& recent,
                                              MinuteStamp start,
                                              int64_t horizon_minutes) const {
  (void)recent;  // curve model: conditioned on time alone
  if (!fitted_) return Status::FailedPrecondition("model is not fitted");
  if (start % interval_ != 0 || horizon_minutes % interval_ != 0) {
    return Status::Invalid("forecast range must be grid-aligned");
  }
  const int64_t steps = horizon_minutes / interval_;
  const int64_t p = NumFeatures();
  std::vector<double>& phi_buf = KernelScratch::Local().Vec(
      kscratch::kAddFeatures, static_cast<size_t>(p));
  double* phi = phi_buf.data();
  std::vector<double> out(static_cast<size_t>(steps), 0.0);

  // Monte-Carlo trend uncertainty (Prophet's predictive intervals): the
  // point forecast is the mean over simulated trend continuations. This
  // is what makes the original's inference expensive; we keep it (with a
  // bounded sample count) so the cost shape carries over.
  Rng rng(options_.seed ^ static_cast<uint64_t>(start));
  const int64_t sims = std::max<int64_t>(1, options_.uncertainty_samples);
  const double span =
      std::max<double>(1.0, static_cast<double>(train_end_ - train_start_));
  for (int64_t i = 0; i < steps; ++i) {
    MinuteStamp t = start + i * interval_;
    FeaturesAt(t, phi);
    double base = 0.0;
    for (int64_t j = 0; j < p; ++j) {
      base += coef_[static_cast<size_t>(j)] * phi[j];
    }
    // Simulate extra trend drift beyond the training range.
    double beyond =
        std::max(0.0, static_cast<double>(t - train_end_) / span);
    double acc = 0.0;
    for (int64_t s = 0; s < sims; ++s) {
      double drift = rng.Gaussian(0.0, 0.3 * residual_sigma_ * beyond);
      acc += base + drift;
    }
    out[static_cast<size_t>(i)] =
        std::clamp(acc / static_cast<double>(sims), 0.0, 200.0);
  }
  return LoadSeries::Make(start, interval_, std::move(out));
}

Result<Json> AdditiveForecast::Serialize() const {
  if (!fitted_) return Status::FailedPrecondition("serialize before fit");
  Json doc = Json::MakeObject();
  doc["model"] = name();
  doc["interval"] = interval_;
  doc["train_start"] = train_start_;
  doc["train_end"] = train_end_;
  doc["daily_order"] = options_.daily_order;
  doc["weekly_order"] = options_.weekly_order;
  doc["changepoints"] = options_.changepoints;
  doc["uncertainty_samples"] = options_.uncertainty_samples;
  doc["seed"] = static_cast<int64_t>(options_.seed);
  doc["residual_sigma"] = residual_sigma_;
  Json holidays = Json::MakeArray();
  for (int64_t day : options_.holidays) holidays.Append(day);
  doc["holidays"] = std::move(holidays);
  Json coeffs = Json::MakeArray();
  for (double c : coef_) coeffs.Append(c);
  doc["coef"] = std::move(coeffs);
  return doc;
}

Status AdditiveForecast::Deserialize(const Json& doc) {
  SEAGULL_ASSIGN_OR_RETURN(double interval, doc.GetNumber("interval"));
  SEAGULL_ASSIGN_OR_RETURN(double ts, doc.GetNumber("train_start"));
  SEAGULL_ASSIGN_OR_RETURN(double te, doc.GetNumber("train_end"));
  SEAGULL_ASSIGN_OR_RETURN(double d, doc.GetNumber("daily_order"));
  SEAGULL_ASSIGN_OR_RETURN(double w, doc.GetNumber("weekly_order"));
  SEAGULL_ASSIGN_OR_RETURN(double c, doc.GetNumber("changepoints"));
  SEAGULL_ASSIGN_OR_RETURN(residual_sigma_, doc.GetNumber("residual_sigma"));
  interval_ = static_cast<int64_t>(interval);
  train_start_ = static_cast<MinuteStamp>(ts);
  train_end_ = static_cast<MinuteStamp>(te);
  options_.daily_order = static_cast<int64_t>(d);
  options_.weekly_order = static_cast<int64_t>(w);
  options_.changepoints = static_cast<int64_t>(c);
  // Inference behaviour (Monte-Carlo sampling) must round-trip too, so a
  // restored endpoint reproduces the deployed model exactly.
  SEAGULL_ASSIGN_OR_RETURN(double samples,
                           doc.GetNumber("uncertainty_samples"));
  SEAGULL_ASSIGN_OR_RETURN(double seed, doc.GetNumber("seed"));
  options_.uncertainty_samples = static_cast<int64_t>(samples);
  options_.seed = static_cast<uint64_t>(seed);
  options_.holidays.clear();
  if (doc["holidays"].is_array()) {
    for (const auto& day : doc["holidays"].AsArray()) {
      if (!day.is_number()) return Status::Invalid("non-numeric holiday");
      options_.holidays.push_back(static_cast<int64_t>(day.AsDouble()));
    }
  }
  if (!doc["coef"].is_array()) return Status::Invalid("missing coef array");
  coef_.clear();
  for (const auto& v : doc["coef"].AsArray()) {
    if (!v.is_number()) return Status::Invalid("non-numeric coefficient");
    coef_.push_back(v.AsDouble());
  }
  if (static_cast<int64_t>(coef_.size()) != NumFeatures()) {
    return Status::Invalid("coefficient count mismatch");
  }
  fitted_ = true;
  return Status::OK();
}

}  // namespace seagull
