/// \file main.cc
/// \brief The repository benchmark. One run = one workload: rounds that
/// alternate weekly fleet cycles with open-loop serving slices, with the
/// set-up repeated between them (median reported) and two `max_rps`
/// ladder walks. Prints a table of every measured metric, then, as the last
/// line, the JSON result: end-to-end metrics with `--trace 0`, per-layer
/// metrics with `--trace 1`.
///
///   seagull_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                     [--smoke] [--commit ID]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/logging.h"
#include "common/obs/metrics.h"
#include "harness.h"
#include "phases.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
/// The measured part of a run alternates fleet iterations and serving
/// slices this many times, so every metric samples the whole run.
constexpr int kRounds = 6;
/// Shares of the measured seconds: fleet iterations, fixed-rate serving
/// slices, and, for each of the two `max_rps` ladder walks, the
/// closed-loop capacity run and each probe.
constexpr double kFleetShare = 0.2;
constexpr double kFixedRateShare = 0.5;
constexpr double kCapacityShare = 0.03;
constexpr double kProbeShare = 0.03;
/// Scratch space inside the checkout for the staged lake.
constexpr const char* kWorkDir = ".bench_build/work";

/// The workload table; README.md says why each workload exists.
std::vector<Workload> Workloads(bool smoke) {
  std::vector<Workload> w(2);
  w[0].name = "fleet-persistent";
  w[0].fleet = {8, 80, false, "persistent_prev_day"};
  w[0].serve = {1200, ""};

  w[1].name = "serve-mixed";
  w[1].fleet = {8, 40, true, "ssa"};
  w[1].serve = {1200, "additive"};
  if (smoke) {
    for (Workload& x : w) {
      x.fleet.regions = 2;
      x.fleet.servers_per_region = 30;
      x.serve.servers = 100;
    }
  }
  return w;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Refuses builds whose timings would mislead: unoptimised or
/// sanitizer-instrumented.
const char* BuildProblem() {
#if !defined(__OPTIMIZE__)
  return "built without optimisation";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "built with a sanitizer";
  }
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-O0") != nullptr) {
    return "built with -O0";
  }
  return nullptr;
#endif
}

void PrintTable(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-40s %16.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: seagull_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--commit ID]\n");
    return 2;
  }
  if (const char* problem = BuildProblem()) {
    std::fprintf(stderr, "refusing to report: benchmark %s (%s, flags '%s')\n",
                 problem, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }
  const Workload* workload = nullptr;
  const std::vector<Workload> table = Workloads(args.smoke);
  for (const Workload& w : table) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  seagull::Logger::SetLevel(seagull::LogLevel::kWarning);

  // Thread budget: at most `hardware_threads` threads load the host.
  // The fleet pool's caller participates in its loops, so the pool gets
  // one worker fewer. Serving uses one tick thread and leaves one
  // hardware thread free of load threads; the rest are request workers.
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int fleet_jobs = std::max(2, hw - 1);
  const int serve_workers = std::max(1, hw - 2);

  const std::string lake_dir = std::string(kWorkDir) + "/lake";
  std::filesystem::create_directories(kWorkDir);
  SpanLog spans(args.trace);
  FleetPhase fleet(workload->fleet, args.seed, lake_dir, fleet_jobs, &spans);
  ServePhase serve(workload->serve, args.seed, serve_workers, &spans);

  Report report;
  std::vector<double> setup_s, generate_ms, stage_ms, bootstrap_ms, first_ms;
  auto setup = [&] {
    SetupTimes t;
    fleet.Setup(&t);
    serve.Setup(&t);
    setup_s.push_back(t.TotalMs() / 1e3);
    generate_ms.push_back(t.generate_ms);
    stage_ms.push_back(t.stage_ms);
    bootstrap_ms.push_back(t.bootstrap_ms);
    first_ms.push_back(t.first_tick_ms);
  };

  // Set-ups are spread over the run like the measurements: one before
  // the first round and the others between rounds. Each replaces the
  // inputs with identical ones.
  const double s = args.seconds;
  setup();
  fleet.RunReference(&report);
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0 && round % (kRounds / kSetupRepeats) == 0) setup();
    fleet.RunIterations(s * kFleetShare / kRounds, &report);
    serve.RunFixedRates(s * kFixedRateShare / kRounds, &report);
    if (round == 1 || round == kRounds - 2) {
      serve.RunLadder(s * kCapacityShare, s * kProbeShare, &report);
    }
  }
  fleet.Finish(&report);
  serve.Finish(&report);

  report.E2e("setup_s", Median(setup_s), "s");
  report.Layer("setup.generate.ms", Median(generate_ms), "ms");
  report.Layer("setup.stage.ms", Median(stage_ms), "ms");
  report.Layer("setup.bootstrap.ms", Median(bootstrap_ms), "ms");
  report.Layer("setup.first_tick.ms", Median(first_ms), "ms");
  report.E2e("peak_rss_mb",
             static_cast<double>(seagull::ReadPeakRssBytes()) / 1e6, "MB");
  std::filesystem::remove_all(lake_dir);

  seagull::Json meta = seagull::Json::MakeObject();
  meta["workload"] = workload->name;
  meta["seed"] = static_cast<int64_t>(args.seed);
  meta["seconds"] = args.seconds;
  meta["trace"] = args.trace;
  meta["smoke"] = args.smoke;
  meta["hardware_threads"] = hw;
  meta["threads_fleet"] = fleet_jobs + 1;
  meta["threads_serving"] = serve_workers + 1;
  meta["fleet_servers"] = fleet.servers();
  meta["fleet_jobs"] = fleet_jobs;
  meta["serve_servers"] = workload->serve.servers;
  meta["serve_refit_model"] = workload->serve.refit_model;
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  meta["commit"] = args.commit;
  std::printf("run metadata: %s\n", meta.Dump().c_str());
  PrintTable("end-to-end metrics:", report.end_to_end);
  PrintTable("per-layer metrics:", report.per_layer);
  std::printf("operations: attempted %lld, failed %lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& p : report.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  auto to_json = [](const std::map<std::string, Metric>& m) {
    seagull::Json out = seagull::Json::MakeObject();
    for (const auto& [name, metric] : m) {
      seagull::Json v = seagull::Json::MakeObject();
      v["value"] = metric.value;
      v["unit"] = metric.unit;
      out[name] = std::move(v);
    }
    return out;
  };
  // Everything measured, for run.py's trace-overhead comparison.
  seagull::Json measured = seagull::Json::MakeObject();
  measured["end_to_end"] = to_json(report.end_to_end);
  measured["per_layer"] = to_json(report.per_layer);
  std::printf("measured: %s\n", measured.Dump().c_str());
  seagull::Json metrics =
      to_json(args.trace ? report.per_layer : report.end_to_end);
  seagull::Json result = seagull::Json::MakeObject();
  result["correct"] = report.correct;
  result["attempted"] = report.attempted;
  result["failed"] = report.failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
