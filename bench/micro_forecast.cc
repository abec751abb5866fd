/// \file micro_forecast.cc
/// \brief Micro-benchmarks of the forecast kernel engine.
///
/// Emits BENCH_forecast.json with per-model Fit() p50/p99 and one-day
/// Forecast() timings, a fleet row (1200 additive servers fit one after
/// the other on one grid, as the training module and a serving tick
/// fit them), and single-kernel timings at production shapes. The
/// host's `hardware_threads` is recorded beside them.
///
/// With `--budgets=<path>` the per-model fit times are checked against
/// the "forecast_train_micros" p50/p99 ceilings in the given budgets
/// file, and the fleet row's shared forecast against
/// "forecast_predict_micros" (tools/check.sh perf wires this up); a
/// violation exits non-zero so the gate fails loudly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "forecast/additive.h"
#include "forecast/arima.h"
#include "forecast/feedforward.h"
#include "forecast/linalg.h"
#include "forecast/model.h"
#include "forecast/scratch.h"
#include "forecast/ssa.h"
#include "timeseries/stats.h"

using namespace seagull;

namespace {

using Clock = std::chrono::steady_clock;

/// Diurnal load with noise at the 5-minute production grid — the same
/// shape every trainable model sees in the pipeline — from `start`.
LoadSeries SyntheticWeek(uint64_t seed, MinuteStamp start = 0) {
  Rng rng(seed);
  std::vector<double> values;
  const int64_t ticks = 7 * 288;
  double level = 30.0;
  for (int64_t i = 0; i < ticks; ++i) {
    const double phase =
        static_cast<double>(i % 288) / 288.0 * 6.283185307179586;
    level = std::clamp(level + rng.Gaussian(0.0, 0.8), 5.0, 95.0);
    values.push_back(
        std::clamp(level + 15.0 * std::sin(phase), 0.0, 100.0));
  }
  return std::move(LoadSeries::Make(start, 5, std::move(values)))
      .ValueOrDie();
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

struct FitTiming {
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  double predict_micros = 0.0;  ///< median per-Forecast cost (one day out)
};

/// Times `reps` fresh fits of `model_name` on a synthetic week, plus
/// the one-day Forecast cost of each fit from the week's end. Each rep
/// shifts the week's grid one interval later than the last: the
/// additive model keeps a thread's design for the last grid it fit and
/// its Monte-Carlo draws for the last start it forecast, and this row
/// measures a fit that builds its design and a forecast that draws
/// afresh (the batch row measures the shared costs).
FitTiming TimeModel(const std::string& model_name, int reps) {
  FitTiming out;
  std::vector<double> fit_samples, predict_samples;
  for (int rep = 0; rep < reps; ++rep) {
    const LoadSeries week = SyntheticWeek(17, (rep + 1) * 5);
    auto model = ModelFactory::Global().Create(model_name);
    model.status().Abort();
    const auto t0 = Clock::now();
    (*model)->Fit(week).Abort();
    fit_samples.push_back(MicrosSince(t0));
    const auto t1 = Clock::now();
    auto forecast = (*model)->Forecast(week, week.end(), kMinutesPerDay);
    forecast.status().Abort();
    predict_samples.push_back(MicrosSince(t1));
    benchmark::DoNotOptimize(forecast->size());
  }
  out.p50_micros = Quantile(fit_samples, 0.5);
  out.p99_micros = Quantile(fit_samples, 0.99);
  out.predict_micros = Quantile(predict_samples, 0.5);
  return out;
}

/// Min-of-reps wall micros of `body()` (kernels are fast; `inner`
/// repeats amortize the clock).
template <typename Fn>
double TimeKernel(int reps, int inner, Fn&& body) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) body();
    const double micros = MicrosSince(t0) / static_cast<double>(inner);
    if (rep == 0 || micros < best) best = micros;
  }
  return best;
}

Json KernelRow(double micros) {
  Json row = Json::MakeObject();
  row["unit"] = "micros";
  row["micros"] = micros;
  return row;
}

/// Timings of the linalg kernels at production-relevant shapes.
Json KernelRows() {
  Json rows = Json::MakeObject();
  Rng rng(7);

  // Hankel Gram at the SSA default: n = one week, L = 72.
  {
    const int64_t n = 2016, L = 72;
    std::vector<double> x(static_cast<size_t>(n));
    for (auto& v : x) v = rng.Gaussian(0.0, 1.0);
    Matrix gram;
    rows["build_lag_gram_2016x72"] = KernelRow(TimeKernel(5, 4, [&] {
      BuildLagGram(x.data(), n, L, &gram);
      benchmark::DoNotOptimize(gram.At(0, 0));
    }));

    // Eigendecomposition of that Gram (the solver consumes its input,
    // so each run starts from a fresh copy).
    Matrix vectors;
    std::vector<double> values;
    rows["symmetric_eigen_72"] = KernelRow(TimeKernel(3, 1, [&] {
      Matrix work = gram;
      SymmetricEigenInPlace(&work, &vectors, &values).Abort();
      benchmark::DoNotOptimize(values[0]);
    }));
  }

  // SYRK-style Gram of a tall-skinny design matrix.
  {
    Matrix a(2016, 24);
    for (int64_t i = 0; i < a.rows(); ++i)
      for (int64_t j = 0; j < a.cols(); ++j)
        a.At(i, j) = rng.Gaussian(0.0, 1.0);
    rows["ata_2016x24"] = KernelRow(TimeKernel(5, 4, [&] {
      Matrix g = AtA(a);
      benchmark::DoNotOptimize(g.At(0, 0));
    }));
  }

  // Unrolled dot at the SSA recurrence length.
  {
    std::vector<double> a(4096), b(4096);
    for (auto& v : a) v = rng.Gaussian(0.0, 1.0);
    for (auto& v : b) v = rng.Gaussian(0.0, 1.0);
    rows["dot_4096"] = KernelRow(TimeKernel(7, 64, [&] {
      benchmark::DoNotOptimize(Dot(a, b));
    }));
  }

  // One Gram-space step of the additive fit: G·c on the 34×34 Gram of
  // the default feature set, 600 of them per fit.
  {
    const int64_t p = 34;
    Matrix design(2016, p);
    for (int64_t i = 0; i < design.rows(); ++i)
      for (int64_t j = 0; j < p; ++j)
        design.At(i, j) = rng.Gaussian(0.0, 1.0);
    const Matrix gram = AtA(design);
    std::vector<double> c(static_cast<size_t>(p)), gc(c.size());
    for (auto& v : c) v = rng.Gaussian(0.0, 1.0);
    rows["sym_mat_vec_34"] = KernelRow(TimeKernel(7, 256, [&] {
      SymMatVec(gram, c.data(), gc.data());
      benchmark::DoNotOptimize(gc[0]);
    }));
  }
  return rows;
}

/// Fleet-scale training: 1200 servers on one telemetry grid, additive
/// family, each created, fit and forecast one day out from the shared
/// grid end on one thread, as the training module and a serving tick's
/// refits run them. The first fit builds the design matrix and its
/// Gram; every later one reads the thread's kept pair, so the fit
/// percentiles gate that sharing, and `first_fit_micros` beside the
/// warm p50 shows what it saves. All 1200 forecasts read one thread's
/// Monte-Carlo draws, so the forecast percentiles gate that sharing.
Json BatchFleetRow() {
  constexpr int64_t kServers = 1200;
  std::vector<LoadSeries> fleet;
  fleet.reserve(kServers);
  for (int64_t s = 0; s < kServers; ++s) {
    fleet.push_back(SyntheticWeek(1000 + static_cast<uint64_t>(s)));
  }

  std::vector<double> fit_micros, forecast_micros;
  const auto t_total = Clock::now();
  for (const LoadSeries& series : fleet) {
    auto model = ModelFactory::Global().Create("additive");
    model.status().Abort();
    const auto t0 = Clock::now();
    (*model)->Fit(series).Abort();
    fit_micros.push_back(MicrosSince(t0));
    const auto t1 = Clock::now();
    auto forecast = (*model)->Forecast(series, series.end(), kMinutesPerDay);
    forecast_micros.push_back(MicrosSince(t1));
    forecast.status().Abort();
  }
  const double total = MicrosSince(t_total);
  std::printf("%-14s %lld servers  first fit %7.0f us  fit p50 %7.0f us  "
              "p99 %7.0f us  (%.0f us in all)\n",
              "batch additive", static_cast<long long>(kServers),
              fit_micros.front(), Quantile(fit_micros, 0.5),
              Quantile(fit_micros, 0.99), total);
  std::printf("%-14s %lld servers  one-day forecast p50 %7.0f us  p99 "
              "%7.0f us\n",
              "batch additive", static_cast<long long>(kServers),
              Quantile(forecast_micros, 0.5),
              Quantile(forecast_micros, 0.99));

  Json row = Json::MakeObject();
  Json fit_j = Json::MakeObject();
  fit_j["p50"] = Quantile(fit_micros, 0.5);
  fit_j["p99"] = Quantile(fit_micros, 0.99);
  row["fit"] = std::move(fit_j);
  Json forecast_j = Json::MakeObject();
  forecast_j["p50"] = Quantile(forecast_micros, 0.5);
  forecast_j["p99"] = Quantile(forecast_micros, 0.99);
  row["forecast"] = std::move(forecast_j);
  row["servers"] = static_cast<double>(kServers);
  row["first_fit_micros"] = fit_micros.front();
  row["total_micros"] = total;
  return row;
}

/// Checks the `leg` ("fit" or "forecast") timings of each model named
/// in budgets section `section` against its p50/p99 ceilings. Returns
/// the number of violations.
int CheckBudgets(const std::string& path, const char* section,
                 const char* leg, const Json& models) {
  auto budgets = bench::LoadBudgets(path, section);
  if (!budgets.ok()) {
    std::fprintf(stderr, "%s\n", budgets.status().ToString().c_str());
    return 1;
  }
  int violations = 0;
  for (const auto& [name, ceiling] : budgets->AsObject()) {
    if (!models[name][leg].is_object()) {
      std::fprintf(stderr, "budgeted %s was not measured: %s\n", leg,
                   name.c_str());
      ++violations;
      continue;
    }
    for (const char* pct : {"p50", "p99"}) {
      const double budget = ceiling[pct].AsDouble();
      const double measured = models[name][leg][pct].AsDouble();
      if (measured > budget) {
        std::fprintf(stderr,
                     "%s budget exceeded: %s %s measured %.0fus > "
                     "budget %.0fus (if intentional, re-baseline "
                     "tests/budgets.json)\n",
                     leg, name.c_str(), pct, measured, budget);
        ++violations;
      }
    }
  }
  if (violations == 0) {
    std::printf("%s budgets OK (%s)\n", leg, path.c_str());
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  std::string budgets_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--budgets=", 10) == 0) {
      budgets_path = argv[i] + 10;
      break;
    }
  }

  seagull::bench::PrintHeader("Forecast kernels",
                              "per-model fit and kernel timings");

  struct ModelPlan {
    const char* name;
    int reps;
  };
  // Heavier optimizers get fewer reps; their budgets carry the headroom.
  const ModelPlan kPlans[] = {
      {"ssa", 9}, {"additive", 7}, {"feedforward", 5}, {"arima", 3}};

  Json models = Json::MakeObject();
  for (const ModelPlan& plan : kPlans) {
    const FitTiming fit = TimeModel(plan.name, plan.reps);
    std::printf("%-14s fit p50 %9.0f us  p99 %9.0f us   predict %7.0f us\n",
                plan.name, fit.p50_micros, fit.p99_micros,
                fit.predict_micros);
    Json row = Json::MakeObject();
    Json fit_j = Json::MakeObject();
    fit_j["p50"] = fit.p50_micros;
    fit_j["p99"] = fit.p99_micros;
    row["fit"] = std::move(fit_j);
    row["predict_micros"] = fit.predict_micros;
    models[plan.name] = std::move(row);
  }

  models["batch"] = BatchFleetRow();

  Json kernels = KernelRows();
  for (const auto& [name, row] : kernels.AsObject()) {
    std::printf("%-26s %9.1f us\n", name.c_str(), row["micros"].AsDouble());
  }

  Json out = Json::MakeObject();
  out["benchmark"] = "forecast_kernels";
  out["hardware_threads"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  out["models"] = std::move(models);
  out["kernels"] = std::move(kernels);
  (void)bench::WriteBenchJson("BENCH_forecast.json", out);

  if (!budgets_path.empty() &&
      CheckBudgets(budgets_path, "forecast_train_micros", "fit",
                   out["models"]) +
              CheckBudgets(budgets_path, "forecast_predict_micros",
                           "forecast", out["models"]) >
          0) {
    return 1;
  }
  return 0;
}
