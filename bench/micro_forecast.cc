/// \file micro_forecast.cc
/// \brief Micro-benchmarks of the forecast kernel engine.
///
/// Emits BENCH_forecast.json with per-model Fit() p50/p99 and one-day
/// Forecast() timings, a batched-fleet row (1200 same-grid additive
/// servers through the BatchTrainer against the plain per-server
/// loop), and single-kernel timings at production shapes. The host's
/// `hardware_threads` is recorded beside them.
///
/// With `--budgets=<path>` the per-model fit times are checked against
/// the "forecast_train_micros" p50/p99 ceilings in the given budgets
/// file (tools/check.sh perf wires this up); a violation exits non-zero
/// so the gate fails loudly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "forecast/additive.h"
#include "forecast/arima.h"
#include "forecast/batch.h"
#include "forecast/feedforward.h"
#include "forecast/linalg.h"
#include "forecast/model.h"
#include "forecast/scratch.h"
#include "forecast/ssa.h"

using namespace seagull;

namespace {

using Clock = std::chrono::steady_clock;

/// Diurnal load with noise at the 5-minute production grid — the same
/// shape every trainable model sees in the pipeline.
LoadSeries SyntheticWeek(uint64_t seed, int64_t days = 7) {
  Rng rng(seed);
  std::vector<double> values;
  const int64_t ticks = days * 288;
  double level = 30.0;
  for (int64_t i = 0; i < ticks; ++i) {
    const double phase =
        static_cast<double>(i % 288) / 288.0 * 6.283185307179586;
    level = std::clamp(level + rng.Gaussian(0.0, 0.8), 5.0, 95.0);
    values.push_back(
        std::clamp(level + 15.0 * std::sin(phase), 0.0, 100.0));
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  if (samples.empty()) return 0.0;
  const double idx = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

struct FitTiming {
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  double predict_micros = 0.0;  ///< median per-Forecast cost (one day out)
};

/// Times `reps` fresh fits of `model_name` on a fixed synthetic week,
/// plus the one-day Forecast cost of each fit.
FitTiming TimeModel(const std::string& model_name, int reps) {
  const LoadSeries week = SyntheticWeek(17);
  FitTiming out;
  std::vector<double> fit_samples, predict_samples;
  for (int rep = 0; rep < reps; ++rep) {
    auto model = ModelFactory::Global().Create(model_name);
    model.status().Abort();
    const auto t0 = Clock::now();
    (*model)->Fit(week).Abort();
    fit_samples.push_back(MicrosSince(t0));
    const auto t1 = Clock::now();
    auto forecast =
        (*model)->Forecast(week, week.end(), kMinutesPerDay);
    forecast.status().Abort();
    predict_samples.push_back(MicrosSince(t1));
    benchmark::DoNotOptimize(forecast->size());
  }
  out.p50_micros = Percentile(fit_samples, 0.5);
  out.p99_micros = Percentile(fit_samples, 0.99);
  out.predict_micros = Percentile(predict_samples, 0.5);
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
  return rows;
}

/// Fleet-scale batched training: 1200 servers on one telemetry grid,
/// additive family, BatchTrainer vs the plain per-server loop
/// training.cc used to run. The emitted row's fit percentiles are
/// the amortized per-server cost — each server's own fit time plus its
/// share of the group overhead (the shared design/Gram build) — so the
/// budget gate fails if batching ever stops paying for itself.
Json BatchFleetRow() {
  constexpr int64_t kServers = 1200;
  std::vector<LoadSeries> fleet;
  fleet.reserve(kServers);
  for (int64_t s = 0; s < kServers; ++s) {
    fleet.push_back(SyntheticWeek(1000 + static_cast<uint64_t>(s)));
  }

  const auto t_ref = Clock::now();
  for (const LoadSeries& series : fleet) {
    auto model = ModelFactory::Global().Create("additive");
    model.status().Abort();
    (*model)->Fit(series).Abort();
    benchmark::DoNotOptimize((*model)->name());
  }
  const double per_server_total = MicrosSince(t_ref);

  std::vector<BatchTrainItem> items(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) items[i].train = &fleet[i];
  BatchTrainStats stats;
  const auto t_batch = Clock::now();
  auto results = BatchTrainer::Fit("additive", items, /*pool=*/nullptr,
                                   &stats);
  const double batch_total = MicrosSince(t_batch);
  results.status().Abort();

  std::vector<double> item_micros;
  double item_sum = 0.0;
  for (const BatchTrainResult& r : *results) {
    r.status.Abort();
    item_micros.push_back(r.fit_micros);
    item_sum += r.fit_micros;
  }
  const double overhead = std::max(0.0, batch_total - item_sum) /
                          static_cast<double>(kServers);
  const double speedup =
      batch_total > 0.0 ? per_server_total / batch_total : 0.0;
  std::printf("%-14s %lld servers  per-server %9.0f us -> batched "
              "%9.0f us  (%5.2fx, %lld groups)\n",
              "batch additive", static_cast<long long>(kServers),
              per_server_total, batch_total, speedup,
              static_cast<long long>(stats.groups));

  Json row = Json::MakeObject();
  Json fit_j = Json::MakeObject();
  fit_j["p50"] = Percentile(item_micros, 0.5) + overhead;
  fit_j["p99"] = Percentile(item_micros, 0.99) + overhead;
  row["fit"] = std::move(fit_j);
  row["servers"] = static_cast<double>(kServers);
  row["groups"] = static_cast<double>(stats.groups);
  row["per_server_total_micros"] = per_server_total;
  row["batch_total_micros"] = batch_total;
  row["batch_speedup"] = speedup;
  return row;
}

/// Checks per-model fit timings against the "forecast_train_micros"
/// section of the budgets file. Returns the number of violations.
int CheckBudgets(const std::string& path, const Json& models) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open budgets file: %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "budgets parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  if (!parsed->Contains("forecast_train_micros")) {
    std::fprintf(stderr,
                 "budgets file has no forecast_train_micros section\n");
    return 1;
  }
  int violations = 0;
  for (const auto& [name, ceiling] : (*parsed)["forecast_train_micros"]
                                         .AsObject()) {
    if (!models.Contains(name)) {
      std::fprintf(stderr, "budgeted model was not measured: %s\n",
                   name.c_str());
      ++violations;
      continue;
    }
    const Json& row = models[name];
    auto check = [&](const char* pct) {
      const double budget = ceiling[pct].AsDouble();
      const double measured = row["fit"][pct].AsDouble();
      if (measured > budget) {
        std::fprintf(stderr,
                     "train budget exceeded: %s %s measured %.0fus > "
                     "budget %.0fus (if intentional, re-baseline "
                     "tests/budgets.json)\n",
                     name.c_str(), pct, measured, budget);
        ++violations;
      }
    };
    check("p50");
    check("p99");
  }
  if (violations == 0) {
    std::printf("train budgets OK (%s)\n", path.c_str());
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
  std::FILE* f = std::fopen("BENCH_forecast.json", "w");
  if (f != nullptr) {
    std::string text = out.DumpPretty();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_forecast.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_forecast.json\n");
  }

  if (!budgets_path.empty() && CheckBudgets(budgets_path, out["models"]) > 0) {
    return 1;
  }
  return 0;
}
