/// \file loadgen.cc
/// \brief Serving-engine load test: BENCH_serving.json.
///
/// Boots a `ServingEngine` over a synthetic production-mix fleet (1200
/// servers by default, one week of 5-minute telemetry tails, the
/// persistent-prev-day champion deployed fleet-wide) and hammers it with
/// the open- and closed-loop drivers across the ramp, spike, and soak
/// profiles. Emits one row per (profile, mode) with per-verb
/// p50/p95/p99 latency, throughput, and the refit-amortization
/// accounting that shows dirty-set tracking paying for itself.
///
/// With `--budgets=<path>` the soak/open row is checked against the
/// "serving_micros" per-verb p50/p99 ceilings and the
/// "serving_min_throughput_rps" floor in the budgets file
/// (tools/check.sh serving wires this up); a violation exits non-zero.
///
/// Flags: --servers=N --ticks=N --base=N --clients=N --seed=S --jobs=N
///        --budgets=PATH --profile=NAME --fault-rate=F --fault-seed=S
///        (all optional; --profile restricts the matrix to one profile,
///        --fault-rate enables the deterministic serving.refit fault
///        point — the soak CI mode runs spike at 10%)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/fault.h"
#include "forecast/persistent.h"
#include "serving/loadgen.h"

using namespace seagull;

namespace {

std::string FlagStr(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

int64_t FlagInt(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string text = FlagStr(argc, argv, name);
  return text.empty() ? fallback : bench::CheckedFlag(name, text, ParseInt64);
}

double FlagDouble(int argc, char** argv, const char* name, double fallback) {
  const std::string text = FlagStr(argc, argv, name);
  return text.empty() ? fallback : bench::CheckedFlag(name, text, ParseDouble);
}

/// Fleet-wide persistent-prev-day endpoint (the paper's champion for
/// the serving scenario; heuristic, so one model serves every server).
ModelEndpoint MakeEndpoint() {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  Json body = Json::MakeObject();
  body["family"] = "persistent_prev_day";
  body["version"] = 1;
  Json models = Json::MakeObject();
  models[""] = std::move(model.Serialize()).ValueOrDie();
  body["models"] = std::move(models);
  return std::move(ModelEndpoint::FromVersionDoc(body)).ValueOrDie();
}

/// One week of telemetry tails for a production-mix fleet.
std::vector<ServerTelemetry> MakeTails(const Fleet& fleet) {
  std::vector<ServerTelemetry> tails;
  tails.reserve(static_cast<size_t>(fleet.size()));
  for (const auto& profile : fleet.servers()) {
    ServerTelemetry st;
    st.server_id = profile.server_id;
    st.load = fleet.ObservedLoad(profile, 0, kMinutesPerWeek);
    tails.push_back(std::move(st));
  }
  return tails;
}

/// Per-verb p50/p99 ceilings + throughput floor for the soak/open row.
/// Returns the number of violations.
int CheckBudgets(const std::string& path, const Json& soak_row) {
  auto ceilings = bench::LoadBudgets(path, "serving_micros");
  if (!ceilings.ok()) {
    std::fprintf(stderr, "%s\n", ceilings.status().ToString().c_str());
    return 1;
  }
  int violations = 0;
  const Json& latency = soak_row["latency_micros"];
  for (const auto& [verb, ceiling] : ceilings->AsObject()) {
    const Json& measured = latency[verb];
    if (!measured.is_object()) {
      std::fprintf(stderr, "BUDGET VIOLATION: no %s requests measured\n",
                   verb.c_str());
      ++violations;
      continue;
    }
    const double p50 = measured["p50_micros"].AsDouble();
    const double p99 = measured["p99_micros"].AsDouble();
    const double p50_max = ceiling["p50"].AsDouble();
    const double p99_max = ceiling["p99"].AsDouble();
    if (p50 > p50_max || p99 > p99_max) {
      std::fprintf(stderr,
                   "BUDGET VIOLATION: serving %s p50 %.0f/%.0f us, "
                   "p99 %.0f/%.0f us (tests/budgets.json)\n",
                   verb.c_str(), p50, p50_max, p99, p99_max);
      ++violations;
    }
  }
  const double min_rps =
      bench::LoadBudgets(path, "serving_min_throughput_rps")
          .ValueOr(Json())
          .AsDouble();
  const double rps = soak_row["throughput_rps"].AsDouble();
  if (min_rps > 0.0 && rps < min_rps) {
    std::fprintf(stderr,
                 "BUDGET VIOLATION: serving throughput %.0f rps < "
                 "floor %.0f rps\n",
                 rps, min_rps);
    ++violations;
  }
  // Subscription freshness: the mean window-move lag must stay under
  // its ceiling (clean runs sit at ~0; refit faults push it up).
  if (auto lag_budget =
          bench::LoadBudgets(path, "serving_notify_lag_ticks_max");
      lag_budget.ok()) {
    const double lag_max = lag_budget->AsDouble();
    const double lag = soak_row["notify_lag_ticks"].AsDouble();
    const int64_t fired = soak_row["notifications"].AsInt();
    if (fired <= 0) {
      std::fprintf(stderr,
                   "BUDGET VIOLATION: no subscription notifications fired\n");
      ++violations;
    } else if (lag > lag_max) {
      std::fprintf(stderr,
                   "BUDGET VIOLATION: notify lag %.3f ticks > max %.3f "
                   "(tests/budgets.json)\n",
                   lag, lag_max);
      ++violations;
    }
  }
  if (violations == 0) {
    std::printf("serving budgets OK (%s)\n", path.c_str());
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t servers = FlagInt(argc, argv, "servers", 1200);
  const int64_t ticks = FlagInt(argc, argv, "ticks", 12);
  const int64_t base = FlagInt(argc, argv, "base", 400);
  const int64_t clients = FlagInt(argc, argv, "clients", 16);
  const uint64_t seed =
      static_cast<uint64_t>(FlagInt(argc, argv, "seed", 1));
  int64_t jobs = FlagInt(argc, argv, "jobs", 0);
  if (jobs <= 0) {
    jobs = static_cast<int64_t>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 4;
  }
  const std::string budgets_path = FlagStr(argc, argv, "budgets");
  const std::string only_profile = FlagStr(argc, argv, "profile");
  const double fault_rate = FlagDouble(argc, argv, "fault-rate", 0.0);
  const uint64_t fault_seed =
      static_cast<uint64_t>(FlagInt(argc, argv, "fault-seed", 5));

  std::unique_ptr<ScopedFaultInjection> faults;
  if (fault_rate > 0.0) {
    FaultConfig config;
    config.seed = fault_seed;
    config.rate = 0.0;  // only the serving.refit point faults
    faults = std::make_unique<ScopedFaultInjection>(config);
    faults->registry().SetPointRate("serving.refit", fault_rate);
  }

  bench::PrintHeader("Serving load test",
                     "open/closed-loop drivers vs the streaming engine");
  std::printf("fleet: %lld servers, %lld ticks, base %lld, %lld jobs\n",
              static_cast<long long>(servers),
              static_cast<long long>(ticks), static_cast<long long>(base),
              static_cast<long long>(jobs));

  const Fleet fleet = bench::ProductionFleet(
      "serve", static_cast<int>(servers), seed, /*weeks=*/1);
  const std::vector<ServerTelemetry> tails = MakeTails(fleet);
  std::vector<std::string> ids;
  ids.reserve(tails.size());
  for (const auto& st : tails) ids.push_back(st.server_id);

  ThreadPool pool(static_cast<int>(jobs));

  struct Run {
    LoadProfile profile;
    DriverMode mode;
  };
  const Run kRuns[] = {
      {LoadProfile::kRamp, DriverMode::kOpenLoop},
      {LoadProfile::kSpike, DriverMode::kOpenLoop},
      {LoadProfile::kSoak, DriverMode::kOpenLoop},
      {LoadProfile::kRamp, DriverMode::kClosedLoop},
      {LoadProfile::kSpike, DriverMode::kClosedLoop},
      {LoadProfile::kSoak, DriverMode::kClosedLoop},
  };

  Json profiles = Json::MakeObject();
  Json soak_open_row;
  for (const Run& run : kRuns) {
    if (!only_profile.empty() && only_profile != LoadProfileName(run.profile)) {
      continue;
    }
    LoadgenOptions options;
    options.profile = run.profile;
    options.mode = run.mode;
    options.seed = seed;
    // Production verb mix: single + batch predicts dominate, a steady
    // subscription churn rides along, the rest is ingest.
    options.predict_fraction = 0.5;
    options.ll_window_fraction = 0.2;
    options.batch_fraction = 0.08;
    options.batch_size = 16;
    options.subscribe_fraction = 0.05;
    // Soak holds the peak rate over a doubled horizon.
    options.ticks = run.profile == LoadProfile::kSoak ? ticks * 2 : ticks;
    // Closed loop: `base` arrivals per tick split across the clients.
    options.base_requests_per_tick =
        run.mode == DriverMode::kOpenLoop
            ? base
            : std::max<int64_t>(1, base / clients);
    options.closed_loop_clients = static_cast<int>(clients);
    options.epoch_start = kMinutesPerWeek;
    options.jobs = static_cast<int>(jobs);

    ServingOptions serving;
    serving.pool = &pool;
    ServingEngine engine(MakeEndpoint(), serving);
    engine.Bootstrap(tails).Abort();
    engine.Tick();  // initial forecasts so epoch-0 queries are served

    const auto schedule = BuildSchedule(options, ids);
    const LoadgenReport report = RunLoadTest(&engine, options, schedule);

    const LatencySummary& predict = report.latency.count("predict")
                                        ? report.latency.at("predict")
                                        : LatencySummary{};
    const LatencySummary& batch = report.latency.count("batch_predict")
                                      ? report.latency.at("batch_predict")
                                      : LatencySummary{};
    std::printf(
        "%-6s %-7s %7lld req %7.0f rps  predict p50/p95/p99 "
        "%6.0f/%6.0f/%6.0f us  batch p99 %6.0f us  notify %lld "
        "(lag %.2f)  refit/query %.3f  errors %lld\n",
        LoadProfileName(run.profile), DriverModeName(run.mode),
        static_cast<long long>(report.requests), report.throughput_rps,
        predict.p50, predict.p95, predict.p99, batch.p99,
        static_cast<long long>(report.notifications),
        report.notify_lag_ticks, report.refit_per_query,
        static_cast<long long>(report.errors));

    Json row = report.ToJson();
    if (!profiles.Contains(LoadProfileName(run.profile))) {
      profiles[LoadProfileName(run.profile)] = Json::MakeObject();
    }
    if (run.profile == LoadProfile::kSoak &&
        run.mode == DriverMode::kOpenLoop) {
      soak_open_row = row;
    }
    profiles[LoadProfileName(run.profile)][DriverModeName(run.mode)] =
        std::move(row);
  }

  Json out = Json::MakeObject();
  out["benchmark"] = "serving_loadtest";
  Json fleet_doc = Json::MakeObject();
  fleet_doc["servers"] = servers;
  fleet_doc["tail_days"] = 7;
  fleet_doc["ticks"] = ticks;
  fleet_doc["base_requests_per_tick"] = base;
  fleet_doc["closed_loop_clients"] = clients;
  fleet_doc["seed"] = static_cast<int64_t>(seed);
  fleet_doc["jobs"] = jobs;
  fleet_doc["fault_rate"] = fault_rate;
  out["fleet"] = std::move(fleet_doc);
  out["profiles"] = std::move(profiles);

  if (!bench::WriteBenchJson("BENCH_serving.json", out).ok()) return 1;

  int violations = 0;
  if (!budgets_path.empty()) {
    if (!soak_open_row.is_object()) {
      std::fprintf(stderr,
                   "--budgets requires the soak/open row (drop --profile "
                   "or include soak)\n");
      violations = 1;
    } else {
      violations = CheckBudgets(budgets_path, soak_open_row);
    }
  }
  return violations == 0 ? 0 : 1;
}
