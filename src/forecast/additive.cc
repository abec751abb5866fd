#include "forecast/additive.h"

#include <algorithm>
#include <cmath>

#include "forecast/linalg.h"
#include "timeseries/resample.h"

namespace seagull {

namespace {
constexpr double kTwoPi = 6.283185307179586;

/// Most deviates one thread keeps: a 14-day horizon (the serving
/// ceiling) on the 5-minute grid at kMaxUncertaintySamples, 32 MB.
constexpr int64_t kMaxKeptDraws =
    14 * kMinutesPerDay / kServerIntervalMinutes * kMaxUncertaintySamples;

/// The standard normals of the Monte-Carlo stream this thread drew
/// last, in draw order; `rng` sits just past `z.back()`. It starts as
/// stream 0 with nothing drawn.
struct StreamDraws {
  uint64_t seed = 0;
  Rng rng{0};
  std::vector<double> z;
};

/// This thread's draws of stream `seed`, holding at least `count`
/// values. A new seed restarts the stream.
const StreamDraws& DrawsFor(uint64_t seed, int64_t count) {
  thread_local StreamDraws draws;
  if (draws.seed != seed) {
    draws.seed = seed;
    draws.rng = Rng(seed);
    draws.z.clear();
  }
  const size_t want = static_cast<size_t>(count);
  if (draws.z.size() < want) draws.z.reserve(want);
  while (draws.z.size() < want) draws.z.push_back(draws.rng.Gaussian());
  return draws;
}

/// The design matrix (row i holds the features of the grid's i-th
/// stamp) and its AᵀA Gram that this thread built last, keyed by
/// everything `FeaturesAt` reads: the grid's start, interval and
/// sample count (its end follows from them) and the structure options.
struct GridDesign {
  MinuteStamp start = 0;
  int64_t interval = 0;
  int64_t samples = -1;  ///< -1: no grid built yet
  int64_t changepoints = 0;
  int64_t daily_order = 0;
  int64_t weekly_order = 0;
  std::vector<int64_t> holidays;
  Matrix design;
  Matrix gram;

  bool Matches(const LoadSeries& filled, const AdditiveOptions& o) const {
    return samples == filled.size() && start == filled.start() &&
           interval == filled.interval_minutes() &&
           changepoints == o.changepoints && daily_order == o.daily_order &&
           weekly_order == o.weekly_order && holidays == o.holidays;
  }
};

}  // namespace

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

Status AdditiveForecast::Fit(const LoadSeries& train) {
  if (train.CountPresent() < 8) {
    return Status::FailedPrecondition("additive model needs history");
  }
  const LoadSeries filled = InterpolateMissing(train);
  interval_ = filled.interval_minutes();
  train_start_ = filled.start();
  train_end_ = filled.end();
  const int64_t n = filled.size();
  const int64_t p = NumFeatures();

  // The design matrix (one row of features per sample) collapses into
  // its p×p Gram through the SYRK-style AtA kernel, so every optimizer
  // iteration below costs O(p²), not O(n·p). Both are a pure function
  // of the grid and the structure options, so this thread's pair from
  // its last fit serves the next fit on the same grid as it is.
  thread_local GridDesign grid;
  if (!grid.Matches(filled, options_)) {
    grid.samples = -1;  // no valid pair until the rebuild completes
    grid.design.Resize(n, p);
    for (int64_t i = 0; i < n; ++i) {
      FeaturesAt(filled.TimeAt(i), grid.design.Row(i));
    }
    grid.gram = AtA(grid.design);
    grid.start = filled.start();
    grid.interval = filled.interval_minutes();
    grid.changepoints = options_.changepoints;
    grid.daily_order = options_.daily_order;
    grid.weekly_order = options_.weekly_order;
    grid.holidays = options_.holidays;
    grid.samples = n;
  }
  const Matrix& design = grid.design;
  const Matrix& gram = grid.gram;

  coef_.assign(static_cast<size_t>(p), 0.0);
  coef_[0] = filled.Mean();  // warm-start the intercept

  const std::vector<double>& y = filled.values();
  std::vector<double> grad(static_cast<size_t>(p));
  const double inv_n = 1.0 / static_cast<double>(n);
  double lr = options_.learning_rate;
  double prev_loss = 0.0;
  // Gram-space iteration: with G = AᵀA, b = Aᵀy and yᵀy precomputed,
  //   ‖A·c − y‖² = cᵀGc − 2bᵀc + yᵀy   and   ∇ = Gc − b,
  // so each step touches p² doubles instead of n·p.
  const std::vector<double> b = TransposeMatVec(design, y);
  const double yty = Dot(y.data(), y.data(), n);
  std::vector<double> gc(static_cast<size_t>(p));
  for (int64_t it = 0; it < options_.iterations; ++it) {
    SymMatVec(gram, coef_.data(), gc.data());
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
  std::vector<double> phi(static_cast<size_t>(p));
  std::vector<double> out(static_cast<size_t>(steps), 0.0);

  // Monte-Carlo trend uncertainty (Prophet's predictive intervals): the
  // point forecast is the mean over simulated trend continuations. This
  // is what makes the original's inference expensive; we keep it (with a
  // bounded sample count) so the cost shape carries over. Sample s of
  // step i takes deviate i·sims + s of the stream seeded `seed ^ start`,
  // which depends on nothing else, so the thread's kept draws serve
  // every forecast at this start; past kMaxKeptDraws the stream
  // continues live on a copy of its generator.
  const int64_t sims = std::max<int64_t>(1, options_.uncertainty_samples);
  const int64_t kept = std::min(steps * sims, kMaxKeptDraws);
  const StreamDraws& draws =
      DrawsFor(options_.seed ^ static_cast<uint64_t>(start), kept);
  Rng spill = draws.rng;
  std::vector<double> spilled;  // one step's deviates, past `kept` only
  const double span =
      std::max<double>(1.0, static_cast<double>(train_end_ - train_start_));
  for (int64_t i = 0; i < steps; ++i) {
    MinuteStamp t = start + i * interval_;
    FeaturesAt(t, phi.data());
    double base = 0.0;
    for (int64_t j = 0; j < p; ++j) {
      base += coef_[static_cast<size_t>(j)] * phi[static_cast<size_t>(j)];
    }
    // Simulate extra trend drift beyond the training range.
    double beyond =
        std::max(0.0, static_cast<double>(t - train_end_) / span);
    const double sd = 0.3 * residual_sigma_ * beyond;
    const double* z;
    if ((i + 1) * sims <= kept) {
      z = draws.z.data() + i * sims;
    } else {
      spilled.resize(static_cast<size_t>(sims));
      for (int64_t s = 0; s < sims; ++s) {
        const int64_t k = i * sims + s;
        spilled[static_cast<size_t>(s)] =
            k < kept ? draws.z[static_cast<size_t>(k)] : spill.Gaussian();
      }
      z = spilled.data();
    }
    double acc = 0.0;
    for (int64_t s = 0; s < sims; ++s) {
      // Rng::Gaussian(0.0, sd) returns exactly 0.0 + sd * deviate.
      double drift = 0.0 + sd * z[s];
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
  // Documents are untrusted (DocStore files, the serving endpoint), so
  // every structure field is range-checked before anything sizes a
  // buffer or divides by it: a negative order would make FeaturesAt
  // write past the feature buffer, and a zero interval would divide by
  // zero. A rejected document leaves the model unfitted.
  fitted_ = false;
  SEAGULL_ASSIGN_OR_RETURN(interval_,
                           GetBoundedInt64(doc, "interval", 1, kMinutesPerDay));
  SEAGULL_ASSIGN_OR_RETURN(train_start_, doc.GetInt64("train_start"));
  SEAGULL_ASSIGN_OR_RETURN(train_end_, doc.GetInt64("train_end"));
  SEAGULL_ASSIGN_OR_RETURN(
      options_.daily_order,
      GetBoundedInt64(doc, "daily_order", 0, kMaxAdditiveTerms));
  SEAGULL_ASSIGN_OR_RETURN(
      options_.weekly_order,
      GetBoundedInt64(doc, "weekly_order", 0, kMaxAdditiveTerms));
  SEAGULL_ASSIGN_OR_RETURN(
      options_.changepoints,
      GetBoundedInt64(doc, "changepoints", 0, kMaxAdditiveTerms));
  SEAGULL_ASSIGN_OR_RETURN(residual_sigma_, doc.GetNumber("residual_sigma"));
  // Inference behaviour (Monte-Carlo sampling) must round-trip too, so a
  // restored endpoint reproduces the deployed model exactly.
  SEAGULL_ASSIGN_OR_RETURN(
      options_.uncertainty_samples,
      GetBoundedInt64(doc, "uncertainty_samples", 1, kMaxUncertaintySamples));
  SEAGULL_ASSIGN_OR_RETURN(int64_t seed, doc.GetInt64("seed"));
  options_.seed = static_cast<uint64_t>(seed);
  options_.holidays.clear();
  if (doc["holidays"].is_array()) {
    for (const auto& day : doc["holidays"].AsArray()) {
      SEAGULL_ASSIGN_OR_RETURN(int64_t holiday, day.ToInt64("holidays entry"));
      options_.holidays.push_back(holiday);
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
