/// \file fig12b_parallel.cc
/// \brief Figure 12(b): Accuracy Evaluation, single-threaded vs
/// partitioned-per-server parallel (the Dask analog), in two modes:
/// backup-day-only and every-day-one-week-ahead.
///
/// Paper shapes: parallel loses slightly at the smallest input and wins
/// consistently at large inputs; in the all-days mode the speedup is
/// 3–4.6x across sizes.
///
/// With `--servers=N` the binary instead runs the fleet-scale memory
/// plane deliverable: N servers staged shard-by-shard as per-region
/// SeriesBlock blobs through the streaming SGB1 writer, the full
/// pipeline executed over each shard at jobs=1 and jobs=`--jobs` (one
/// `FleetRunner::Run` per shard and pass, each in a forked child that
/// digests its regions and reports its peak RSS), and the shard's blobs
/// deleted before the next shard is staged (both disk and RSS stay
/// shard-bounded, which is what makes `--servers=1000000` runnable). Per-region digests are compared for byte-identity across
/// the two passes, and (with `--budgets=<path>`) peak RSS, per-server
/// costs, and encoder residency are gated against the `fleet_scale`
/// section of tests/budgets.json. Writes BENCH_scale.json. `--shard=K`
/// sets the shard width in regions (default 8, at least 1).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/obs/metrics.h"
#include "common/strings.h"
#include "pipeline/accuracy.h"
#include "pipeline/features.h"
#include "pipeline/fleet_runner.h"
#include "pipeline/inference.h"
#include "pipeline/ingestion.h"
#include "pipeline/pipeline.h"
#include "pipeline/training.h"
#include "pipeline/validation.h"
#include "store/lake_store.h"
#include "telemetry/emitter.h"

using namespace seagull;
using namespace seagull::bench;

namespace {

/// Context prepared through deployment so only accuracy evaluation runs
/// inside the timed region.
struct Prepared {
  DocStore docs;
  PipelineContext ctx;
};

Prepared* PrepareRegion(int num_servers) {
  static const Result<LakeStore> lake = LakeStore::OpenTemporary("fig12b");
  lake.status().Abort();
  auto* prepared = new Prepared();
  std::string region = "par-" + std::to_string(num_servers);
  Fleet fleet = ProductionFleet(region, num_servers, 900, 4);
  lake->Put(LakeStore::TelemetryKey(region, 3), ExtractWeekBlock(fleet, 3))
      .Abort();
  prepared->ctx.region = region;
  prepared->ctx.week = 3;
  prepared->ctx.lake = &*lake;
  prepared->ctx.docs = &prepared->docs;

  Pipeline prefix;  // everything before accuracy evaluation
  prefix.Add(std::make_unique<DataIngestionModule>())
      .Add(std::make_unique<DataValidationModule>())
      .Add(std::make_unique<FeatureExtractionModule>())
      .Add(std::make_unique<ModelTrainingModule>())
      .Add(std::make_unique<ModelDeploymentModule>());
  PipelineRunReport report = prefix.Run(&prepared->ctx);
  report.success ? void() : std::abort();
  return prepared;
}

Prepared& CachedRegion(int num_servers) {
  static auto* cache = new std::map<int, Prepared*>();
  auto it = cache->find(num_servers);
  if (it == cache->end()) {
    it = cache->emplace(num_servers, PrepareRegion(num_servers)).first;
  }
  return *it->second;
}

void RunAccuracy(benchmark::State& state, int threads, bool all_days) {
  Prepared& prepared = CachedRegion(static_cast<int>(state.range(0)));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  AccuracyEvaluationOptions options;
  options.evaluate_all_days = all_days;
  for (auto _ : state) {
    PipelineContext ctx = prepared.ctx;  // fresh copy per iteration
    ctx.pool = pool.get();
    AccuracyEvaluationModule module(options);
    Status st = module.Run(&ctx);
    st.Abort();
    benchmark::DoNotOptimize(ctx.accuracy_records.size());
  }
}

void BM_BackupDay_Sequential(benchmark::State& state) {
  RunAccuracy(state, 1, false);
}
void BM_BackupDay_Parallel(benchmark::State& state) {
  RunAccuracy(state, 8, false);
}
void BM_AllDays_Sequential(benchmark::State& state) {
  RunAccuracy(state, 1, true);
}
void BM_AllDays_Parallel(benchmark::State& state) {
  RunAccuracy(state, 8, true);
}

}  // namespace

BENCHMARK(BM_BackupDay_Sequential)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BackupDay_Parallel)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllDays_Sequential)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllDays_Parallel)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);

namespace {

/// Fleet-level comparison (the Dask partition-per-server analog run
/// across whole regions): executes the same fixed-seed fleet with
/// jobs=1 and jobs=N through FleetRunner, checks the outputs are
/// byte-identical, and records the wall-clock trajectory in
/// BENCH_parallel.json for future PRs to regress against.
void RunFleetComparison() {
  constexpr int kRegions = 6;
  constexpr int kServers = 60;
  constexpr int64_t kWeek = 3;
  const unsigned cores = std::thread::hardware_concurrency();
  const int par_jobs =
      static_cast<int>(cores < 2 ? 2 : (cores > 8 ? 8 : cores));

  auto lake = LakeStore::OpenTemporary("fig12b_fleet");
  lake.status().Abort();
  std::vector<FleetJob> jobs;
  for (int r = 0; r < kRegions; ++r) {
    std::string region = "fleet-" + std::to_string(r);
    Fleet fleet = ProductionFleet(region, kServers,
                                  1200 + static_cast<uint64_t>(r));
    lake->Put(LakeStore::TelemetryKey(region, kWeek),
              ExtractWeekBlock(fleet, kWeek))
        .Abort();
    jobs.push_back({region, kWeek});
  }

  auto run = [&](int n_jobs, DocStore* docs) {
    FleetOptions options;
    options.jobs = n_jobs;
    FleetRunner runner(&*lake, docs, options);
    PipelineContext config;
    FleetRunResult result = runner.Run(jobs, config);
    if (result.FailureCount() != 0) {
      std::fprintf(stderr, "fleet run failed (%lld failures)\n",
                   static_cast<long long>(result.FailureCount()));
      std::abort();
    }
    return result;
  };

  DocStore seq_docs, par_docs;
  const FleetRunResult seq = run(1, &seq_docs);
  const FleetRunResult par = run(par_jobs, &par_docs);

  // Determinism gate: the parallel run must reproduce the sequential
  // run's data outputs exactly (tests/fleet_determinism_test.cc covers
  // the full snapshot; this is the in-bench spot check).
  auto dump = [](DocStore* docs, const char* container) {
    Json arr = Json::MakeArray();
    for (const auto& doc : docs->GetContainer(container)->Query(
             [](const Document&) { return true; })) {
      Json d = Json::MakeObject();
      d["pk"] = doc.partition_key;
      d["id"] = doc.id;
      d["body"] = doc.body;
      arr.Append(std::move(d));
    }
    return arr.Dump();
  };
  const bool deterministic =
      dump(&seq_docs, kPredictionsContainer) ==
          dump(&par_docs, kPredictionsContainer) &&
      dump(&seq_docs, kAccuracyContainer) ==
          dump(&par_docs, kAccuracyContainer);

  const double speedup =
      par.wall_millis > 0.0 ? seq.wall_millis / par.wall_millis : 0.0;
  PrintHeader("Fleet engine",
              "whole-region pipelines, sequential vs parallel");
  std::printf("%-28s %10.1f ms\n", "sequential (jobs=1)", seq.wall_millis);
  std::printf("%-28s %10.1f ms  (jobs=%d)\n", "parallel", par.wall_millis,
              par_jobs);
  std::printf("%-28s %10.2fx\n", "speedup", speedup);
  std::printf("%-28s %10s\n", "outputs identical",
              deterministic ? "yes" : "NO (BUG)");

  Json out = Json::MakeObject();
  out["benchmark"] = "fleet_parallel";
  out["hardware_threads"] = static_cast<int64_t>(cores);
  out["regions"] = kRegions;
  out["servers_per_region"] = kServers;
  out["jobs_parallel"] = par_jobs;
  out["sequential_ms"] = seq.wall_millis;
  out["parallel_ms"] = par.wall_millis;
  out["speedup"] = speedup;
  out["deterministic"] = deterministic;
  if (cores < 4) {
    // On a starved host the "parallel" run only measures dispatch
    // overhead; a sub-1.0x ratio here reads as a perf regression when it
    // is really a hardware limitation, so the target is marked
    // not-applicable instead of being reported as missed.
    out["speedup_target"] = "n/a";
    out["note"] = StringPrintf(
        "host has %u hardware thread(s); the >=2x speedup target needs "
        ">=4 cores, so the measured ratio is dispatch overhead only",
        cores);
  } else {
    out["speedup_target"] = ">=2x";
    out["note"] =
        "speedup is bounded by hardware_threads; the >=2x target applies "
        "on >=4 cores";
  }
  (void)WriteBenchJson("BENCH_parallel.json", out);
}

/// Digest of one region's gated containers (predictions, accuracy,
/// model registry) — the same containers the in-bench determinism spot
/// check dumps, hashed instead of retained so a 100k-server fleet can
/// be compared across job counts without holding O(fleet) documents.
/// Incidents and run records are excluded: run records carry wall
/// clock, and the first-ever run of a region writes a one-time
/// "deduced schema" incident later runs do not repeat.
uint64_t DigestRegion(DocStore* docs, const std::string& region) {
  uint64_t h = 1469598103934665603ULL;
  for (const char* container :
       {kPredictionsContainer, kAccuracyContainer, kModelRegistryContainer}) {
    h = Fnv1aFold(h, container);
    for (const auto& doc :
         docs->GetContainer(container)->ReadPartition(region)) {
      h = Fnv1aFold(h, doc.id);
      h = Fnv1aFold(h, doc.body.Dump());
    }
  }
  return h;
}

/// One pass configuration over the scale fleet. The two passes differ
/// only in job count, so their digests check determinism across
/// parallelism.
struct PassConfig {
  const char* key;    ///< JSON key prefix
  const char* label;  ///< report row label
  int jobs;
};

/// What one (pass, shard) window's child reports back, followed in
/// its bytes by one region digest per job.
struct WindowReport {
  double wall_millis = 0.0;  ///< `Run` only (no staging or digests)
  int64_t failures = 0;
  int64_t ingest_resident_bytes = 0;
  int64_t peak_rss_bytes = -1;  ///< the child's VmHWM; -1 unreadable
};

/// Accumulated results of one pass across every staging shard.
struct PassStats {
  std::vector<uint64_t> digests;  ///< per region, job order
  double wall_millis = 0.0;       ///< `Run` only (no staging or digests)
  int64_t peak_rss_bytes = 0;     ///< max over per-shard windows
  int64_t ingest_resident_bytes = 0;
  int64_t failures = 0;
  int64_t unmeasured = 0;  ///< windows whose child reported nothing
};

/// Runs `jobs` at `options` in a forked child against a fresh DocStore
/// (bench::RunInChild): the window's peak RSS is the child's own
/// watermark, which starts at its resident size at the fork. The child
/// digests each region before it exits; the parent keeps no documents.
Result<std::pair<WindowReport, std::vector<uint64_t>>> RunWindow(
    LakeStore* lake, const std::vector<FleetJob>& jobs,
    const FleetOptions& options) {
  auto window = [&] {
    Counter* ingest_resident = MetricsRegistry::Global().GetCounter(
        "seagull.pipeline.ingest_resident_bytes", {{"format", "binary"}});
    const int64_t ingest_before = ingest_resident->Value();
    DocStore docs;
    FleetRunner runner(lake, &docs, options);
    PipelineContext config;
    config.model_name = "persistent_prev_day";
    const FleetRunResult result = runner.Run(jobs, config);
    std::vector<uint64_t> digests;
    for (const FleetJob& job : jobs) {
      digests.push_back(DigestRegion(&docs, job.region));
    }
    WindowReport report;
    report.wall_millis = result.wall_millis;
    report.failures = result.FailureCount();
    report.ingest_resident_bytes = ingest_resident->Value() - ingest_before;
    report.peak_rss_bytes = ReadPeakRssBytes();
    std::string out(reinterpret_cast<const char*>(&report), sizeof(report));
    out.append(reinterpret_cast<const char*>(digests.data()),
               digests.size() * sizeof(uint64_t));
    return out;
  };
  SEAGULL_ASSIGN_OR_RETURN(std::string bytes, RunInChild(window));
  if (bytes.size() != sizeof(WindowReport) + jobs.size() * sizeof(uint64_t)) {
    return Status::IOError("window report has the wrong size");
  }
  std::pair<WindowReport, std::vector<uint64_t>> out;
  std::memcpy(&out.first, bytes.data(), sizeof(WindowReport));
  out.second.resize(jobs.size());
  std::memcpy(out.second.data(), bytes.data() + sizeof(WindowReport),
              jobs.size() * sizeof(uint64_t));
  return out;
}

/// The bounded-everything fleet-scale run (the tentpole deliverable).
///
/// Regions are processed in staging shards of `shard` regions: each
/// shard's blobs are staged through the *streaming* SGB1 writer
/// (`ExtractWeekBlockTo` + `PutStreamed` — no region's rows or blob are
/// ever held in memory), every pass configuration runs the full
/// pipeline over just that shard (each pass keeps its own DocStore and
/// digest list across shards), and the shard's blobs are then deleted
/// before the next shard is staged. Disk usage is therefore bounded by
/// one shard's blobs (~`shard` x 95 MB) and RSS by one shard's working
/// set — which is what makes `--servers 1000000` (~95 GB of telemetry)
/// runnable on a host whose disk could never hold the whole fleet.
///
/// Each (pass, shard) window runs in its own forked child, one at a
/// time, so (a) a pass never inherits another pass's arena floor and
/// (b) no mid-shard spike escapes the reading — the window *is* the
/// shard. Peak RSS per pass is the max over its windows.
///
/// Digest identity is required across the two passes: jobs=1 vs
/// jobs=N (determinism).
int RunScaleFleet(int64_t servers, int par_jobs, int64_t shard,
                  const std::string& budgets_path) {
  constexpr int64_t kWeek = 3;
  constexpr int64_t kRegionServers = 1000;
  const int64_t regions =
      (servers + kRegionServers - 1) / kRegionServers;
  PrintHeader("Fleet scale",
              "bounded-RSS pipeline run, jobs=1 vs jobs=N, digest compare");
  std::printf("%-28s %10lld servers in %lld regions (shard %lld)\n",
              "fleet", static_cast<long long>(servers),
              static_cast<long long>(regions),
              static_cast<long long>(shard));

  auto lake = LakeStore::OpenTemporary("fig12b_scale");
  lake.status().Abort();

  const std::vector<PassConfig> pass_configs = {
      {"sequential", "sequential", 1},
      {"parallel", "parallel", par_jobs},
  };
  std::vector<PassStats> stats(pass_configs.size());
  for (PassStats& s : stats) s.digests.reserve(static_cast<size_t>(regions));

  int64_t staged_bytes = 0;
  int64_t encode_resident_bytes = 0;  // max writer high-water, any region
  double staging_millis = 0.0;
  int64_t remaining = servers;
  int64_t next_region = 0;

  for (int64_t shard_begin = 0; shard_begin < regions;
       shard_begin += shard) {
    const int64_t shard_end = std::min(regions, shard_begin + shard);

    // Stage this shard's blobs through the streaming writer: the SGB1
    // bytes go from the encoder straight into the lake's atomic put.
    std::vector<FleetJob> shard_jobs;
    shard_jobs.reserve(static_cast<size_t>(shard_end - shard_begin));
    const auto stage_start = std::chrono::steady_clock::now();
    for (; next_region < shard_end; ++next_region) {
      std::string region = "scale-" + std::to_string(next_region);
      const int64_t n = std::min<int64_t>(kRegionServers, remaining);
      remaining -= n;
      Fleet fleet =
          ProductionFleet(region, static_cast<int>(n),
                          3000 + static_cast<uint64_t>(next_region), 4);
      int64_t region_bytes = 0;
      int64_t writer_resident = 0;
      lake->PutStreamed(
              LakeStore::TelemetryKey(region, kWeek),
              [&](std::ostream& out) {
                return ExtractWeekBlockTo(
                    fleet, kWeek,
                    [&](std::string_view bytes) -> Status {
                      out.write(bytes.data(),
                                static_cast<std::streamsize>(bytes.size()));
                      if (!out) return Status::IOError("staging write failed");
                      region_bytes += static_cast<int64_t>(bytes.size());
                      return Status::OK();
                    },
                    &writer_resident);
              })
          .Abort();
      staged_bytes += region_bytes;
      encode_resident_bytes = std::max(encode_resident_bytes, writer_resident);
      shard_jobs.push_back({region, kWeek});
    }
    staging_millis += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - stage_start)
                          .count();

    // Every pass runs this shard, one forked window at a time, before
    // its blobs are dropped.
    for (size_t p = 0; p < pass_configs.size(); ++p) {
      FleetOptions options;
      options.jobs = pass_configs[p].jobs;
      auto window = RunWindow(&*lake, shard_jobs, options);
      if (!window.ok()) {
        std::fprintf(stderr, "%s window failed: %s\n", pass_configs[p].key,
                     window.status().ToString().c_str());
        stats[p].failures += static_cast<int64_t>(shard_jobs.size());
        stats[p].digests.resize(stats[p].digests.size() + shard_jobs.size());
        ++stats[p].unmeasured;
        continue;
      }
      const WindowReport& report = window->first;
      stats[p].digests.insert(stats[p].digests.end(), window->second.begin(),
                              window->second.end());
      stats[p].wall_millis += report.wall_millis;
      stats[p].failures += report.failures;
      stats[p].peak_rss_bytes =
          std::max(stats[p].peak_rss_bytes, report.peak_rss_bytes);
      if (report.peak_rss_bytes < 0) ++stats[p].unmeasured;
      stats[p].ingest_resident_bytes += report.ingest_resident_bytes;
    }

    // Retire the staged blobs: at 1M servers the whole fleet's
    // telemetry (~95 GB) never exists on disk at once.
    for (const FleetJob& job : shard_jobs) {
      lake->Delete(LakeStore::TelemetryKey(job.region, job.week)).Abort();
    }
    if (regions > 100) {
      std::printf("  ... %lld/%lld regions done\n",
                  static_cast<long long>(shard_end),
                  static_cast<long long>(regions));
      std::fflush(stdout);
    }
  }

  std::printf("%-28s %10.1f MB staged via streaming writer (%lld blobs, "
              "%.1f s, encode resident %.1f MB)\n",
              "lake", static_cast<double>(staged_bytes) / 1e6,
              static_cast<long long>(regions), staging_millis / 1e3,
              static_cast<double>(encode_resident_bytes) / 1e6);

  const PassStats& seq = stats[0];
  const PassStats& par = stats[1];
  const bool deterministic =
      seq.failures == 0 && par.failures == 0 && seq.digests == par.digests;
  const double per_server_bytes =
      static_cast<double>(seq.ingest_resident_bytes) /
      static_cast<double>(servers);
  int64_t worst_peak = 0;
  for (const PassStats& s : stats) {
    worst_peak = std::max(worst_peak, s.peak_rss_bytes);
  }
  const double per_server_peak =
      static_cast<double>(worst_peak) / static_cast<double>(servers);

  for (size_t p = 0; p < pass_configs.size(); ++p) {
    std::printf("%-28s %10.1f s   peak RSS %8.1f MB  (jobs=%d)\n",
                pass_configs[p].label, stats[p].wall_millis / 1e3,
                static_cast<double>(stats[p].peak_rss_bytes) / 1e6,
                pass_configs[p].jobs);
  }
  std::printf("%-28s %10.0f bytes/server (amortized ingest)\n",
              "resident cost", per_server_bytes);
  std::printf("%-28s %10.0f bytes/server (worst pass)\n", "peak RSS cost",
              per_server_peak);
  std::printf("%-28s %10s\n", "digests identical (jobs)",
              deterministic ? "yes" : "NO (BUG)");

  Json out = Json::MakeObject();
  out["benchmark"] = "fleet_scale";
  out["hardware_threads"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  out["servers"] = servers;
  out["regions"] = regions;
  out["region_servers"] = kRegionServers;
  out["max_resident_regions"] = shard;
  out["staged_bytes"] = staged_bytes;
  out["staging_s"] = staging_millis / 1e3;
  out["encode_resident_bytes"] = encode_resident_bytes;
  out["jobs_parallel"] = par_jobs;
  for (size_t p = 0; p < pass_configs.size(); ++p) {
    out[std::string(pass_configs[p].key) + "_s"] = stats[p].wall_millis / 1e3;
    out[std::string(pass_configs[p].key) + "_peak_rss_bytes"] =
        stats[p].peak_rss_bytes;
  }
  out["ingest_resident_bytes"] = seq.ingest_resident_bytes;
  out["per_server_resident_bytes"] = per_server_bytes;
  out["per_server_peak_rss_bytes"] = per_server_peak;
  out["deterministic"] = deterministic;
  out["jobs_identical"] = deterministic;
  (void)WriteBenchJson("BENCH_scale.json", out);

  int violations = 0;
  if (!deterministic) {
    std::fprintf(stderr, "scale run diverged across job counts\n");
    ++violations;
  }
  if (!budgets_path.empty()) {
    auto budgets = LoadBudgets(budgets_path, "fleet_scale");
    if (!budgets.ok()) {
      std::fprintf(stderr, "%s\n", budgets.status().ToString().c_str());
      return 1;
    }
    const Json& scale = *budgets;
    for (size_t p = 0; p < pass_configs.size(); ++p) {
      if (stats[p].unmeasured > 0) {
        std::fprintf(stderr,
                     "fleet_scale budget not met: %lld %s window(s) could "
                     "not measure their peak RSS\n",
                     static_cast<long long>(stats[p].unmeasured),
                     pass_configs[p].key);
        ++violations;
      }
    }
    const double rss_ceiling = scale["max_peak_rss_bytes"].AsDouble();
    // The ceiling is calibrated at the full 100k-server fleet; smaller
    // smokes must fit under it a fortiori.
    if (static_cast<double>(worst_peak) > rss_ceiling) {
      std::fprintf(stderr,
                   "fleet_scale budget exceeded: peak RSS %lld > ceiling "
                   "%.0f bytes (if intentional, re-baseline "
                   "tests/budgets.json)\n",
                   static_cast<long long>(worst_peak), rss_ceiling);
      ++violations;
    }
    const double per_server_ceiling =
        scale["max_per_server_resident_bytes"].AsDouble();
    if (per_server_bytes > per_server_ceiling) {
      std::fprintf(stderr,
                   "fleet_scale budget exceeded: %.0f resident "
                   "bytes/server > ceiling %.0f (if intentional, "
                   "re-baseline tests/budgets.json)\n",
                   per_server_bytes, per_server_ceiling);
      ++violations;
    }
    if (scale.Contains("max_encode_resident_bytes")) {
      const double encode_ceiling =
          scale["max_encode_resident_bytes"].AsDouble();
      if (static_cast<double>(encode_resident_bytes) > encode_ceiling) {
        std::fprintf(stderr,
                     "fleet_scale budget exceeded: encode resident %lld > "
                     "ceiling %.0f bytes (if intentional, re-baseline "
                     "tests/budgets.json)\n",
                     static_cast<long long>(encode_resident_bytes),
                     encode_ceiling);
        ++violations;
      }
    }
    // Per-server peak RSS only amortizes at fleet scale: a small smoke
    // divides a fixed process floor by few servers and would trip the
    // ceiling spuriously, so the gate arms at >= 100k servers.
    if (scale.Contains("max_per_server_peak_rss_bytes") &&
        servers >= 100000) {
      const double peak_ceiling =
          scale["max_per_server_peak_rss_bytes"].AsDouble();
      if (per_server_peak > peak_ceiling) {
        std::fprintf(stderr,
                     "fleet_scale budget exceeded: %.0f peak-RSS "
                     "bytes/server > ceiling %.0f (if intentional, "
                     "re-baseline tests/budgets.json)\n",
                     per_server_peak, peak_ceiling);
        ++violations;
      }
    }
    if (violations == 0) {
      std::printf("fleet_scale budgets OK (%s)\n", budgets_path.c_str());
    }
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t scale_servers = 0;
  int scale_jobs = 8;
  int64_t scale_shard = 8;
  std::string budgets_path;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--servers=", 10) == 0) {
      scale_servers = bench::CheckedFlag("servers", argv[i] + 10, ParseInt64);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      scale_jobs = static_cast<int>(
          bench::CheckedFlag("jobs", argv[i] + 7, ParseInt64));
    } else if (std::strncmp(argv[i], "--shard=", 8) == 0) {
      scale_shard = bench::CheckedFlag("shard", argv[i] + 8, ParseInt64);
    } else if (std::strncmp(argv[i], "--budgets=", 10) == 0) {
      budgets_path = argv[i] + 10;
    } else {
      argv[out_argc++] = argv[i];  // leave the rest for the benchmark lib
    }
  }
  argc = out_argc;

  if (scale_servers > 0) {
    return RunScaleFleet(scale_servers, scale_jobs < 1 ? 1 : scale_jobs,
                         scale_shard < 1 ? 1 : scale_shard, budgets_path);
  }

  unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "Figure 12(b): accuracy evaluation, sequential vs partitioned per "
      "server across 8 workers.\n"
      "This machine reports %u hardware thread(s); the paper's 3-4.6x "
      "parallel speedup requires multiple cores — on a single-core host "
      "the parallel rows only measure dispatch overhead.\n",
      cores);
  RunFleetComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
