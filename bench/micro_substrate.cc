/// \file micro_substrate.cc
/// \brief Micro-benchmarks of the hot substrate kernels: the min-average
/// window sweep (every LL-window query), the bucket-ratio comparison
/// (every accuracy evaluation), telemetry decode (SeriesBlock) beside
/// the CSV import that `seagull transcode` runs (parse plus SGB1
/// encode), and SSA fitting (the cheapest trainable model).
///
/// Not a paper figure — a regression guard for the paths every
/// experiment runs through thousands of times. Also emits
/// BENCH_ingest.json: the data-plane trajectory (rows/sec and bytes/sec
/// of the CSV import and the SeriesBlock decode at the 1200-server
/// region, the SeriesBlock decode's peak-RSS footprint, measured in a
/// forked child, and the SGB1 writer's wall time and resident cost) for
/// future changes to regress against. With `--budgets=<path>` the
/// decode footprint per server is gated against the `ingest_memory`
/// section of tests/budgets.json; a footprint that cannot be measured
/// fails the gate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "forecast/ssa.h"
#include "metrics/bucket_ratio.h"
#include "telemetry/emitter.h"
#include "telemetry/series_block.h"
#include "timeseries/window.h"

using namespace seagull;

namespace {

LoadSeries RandomDay(uint64_t seed, int64_t days = 1) {
  Rng rng(seed);
  std::vector<double> values;
  double level = 25.0;
  for (int64_t i = 0; i < days * 288; ++i) {
    level = std::clamp(level + rng.Gaussian(0.0, 1.0), 0.0, 100.0);
    values.push_back(level);
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

void BM_MinAverageWindow(benchmark::State& state) {
  LoadSeries day = RandomDay(1, state.range(0));
  for (auto _ : state) {
    WindowResult w = FindMinAverageWindow(day, 120);
    benchmark::DoNotOptimize(w.start);
  }
  state.SetItemsProcessed(state.iterations() * day.size());
}

void BM_BucketRatio(benchmark::State& state) {
  LoadSeries truth = RandomDay(2, state.range(0));
  LoadSeries pred = RandomDay(3, state.range(0));
  for (auto _ : state) {
    BucketRatioResult r = BucketRatio(pred, truth);
    benchmark::DoNotOptimize(r.ratio);
  }
  state.SetItemsProcessed(state.iterations() * truth.size());
}

/// The region-week as `seagull transcode --to csv` prints it.
std::string WeekCsv(const std::string& block) {
  return RecordsToCsvText(std::move(DecodeSeriesBlock(block)).ValueOrDie());
}

/// A CSV import as `seagull transcode` runs it: parse the rows, then
/// stream them through the SGB1 writer (into a byte count here, where
/// the CLI streams into the lake).
void ImportCsv(std::string_view csv) {
  auto records = ParseTelemetryCsv(csv);
  records.status().Abort();
  int64_t bytes = 0;
  WriteSeriesBlockFromRecords(*records, kServerIntervalMinutes,
                              [&](std::string_view b) {
                                bytes += static_cast<int64_t>(b.size());
                                return Status::OK();
                              })
      .Abort();
  benchmark::DoNotOptimize(bytes);
}

void BM_TelemetryCsvParse(benchmark::State& state) {
  RegionConfig config;
  config.name = "micro";
  config.num_servers = static_cast<int>(state.range(0));
  config.weeks = 4;
  Fleet fleet = Fleet::Generate(config);
  std::string text = WeekCsv(ExtractWeekBlock(fleet, 3));
  for (auto _ : state) {
    auto records = ParseTelemetryCsv(text);
    benchmark::DoNotOptimize(records->size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

/// CSV import (the transcode edge; the pipeline reads SGB1 only).
void BM_IngestCsv(benchmark::State& state) {
  RegionConfig config;
  config.name = "micro";
  config.num_servers = static_cast<int>(state.range(0));
  config.weeks = 4;
  Fleet fleet = Fleet::Generate(config);
  std::string text = WeekCsv(ExtractWeekBlock(fleet, 3));
  for (auto _ : state) ImportCsv(text);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

/// Binary ingestion: the `SeriesBlockCursor` path the pipeline runs —
/// per-server column views into the blob, one grouped server
/// materialized at a time, no whole-block column scratch.
void BM_IngestStreaming(benchmark::State& state) {
  RegionConfig config;
  config.name = "micro";
  config.num_servers = static_cast<int>(state.range(0));
  config.weeks = 4;
  Fleet fleet = Fleet::Generate(config);
  std::string block = ExtractWeekBlock(fleet, 3);
  for (auto _ : state) {
    auto cursor = SeriesBlockCursor::Open(std::string_view(block));
    cursor.status().Abort();
    std::vector<ServerTelemetry> servers;
    servers.reserve(static_cast<size_t>(cursor->size()));
    StreamSeriesBlockServers(*cursor, [&](ServerTelemetry&& st) {
      servers.push_back(std::move(st));
      return Status::OK();
    }).Abort();
    benchmark::DoNotOptimize(servers.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(block.size()));
}

void BM_SsaFit(benchmark::State& state) {
  LoadSeries week = RandomDay(4, 7);
  for (auto _ : state) {
    SsaForecast model;
    Status st = model.Fit(week);
    st.Abort();
    benchmark::DoNotOptimize(model.rank());
  }
}

void BM_GenerateLoadWeek(benchmark::State& state) {
  ServerProfile profile;
  profile.server_id = "micro";
  profile.archetype = ServerArchetype::kNoPattern;
  profile.created_at = 0;
  profile.deleted_at = 4 * kMinutesPerWeek;
  profile.seed = 5;
  for (auto _ : state) {
    LoadSeries load = GenerateLoad(profile, 3 * kMinutesPerWeek,
                                   4 * kMinutesPerWeek);
    benchmark::DoNotOptimize(load.size());
  }
}

/// Emits BENCH_ingest.json: CSV import (the transcode edge) and
/// SeriesBlock decode throughput at the paper-scale 1200-server region
/// (min-of-3 wall times), the SeriesBlock decode's peak-RSS footprint,
/// and the SGB1 writer's cost.
int RunIngestTrajectory(const std::string& budgets_path) {
  using Clock = std::chrono::steady_clock;
  seagull::bench::PrintHeader("Data plane", "CSV vs SeriesBlock ingestion");

  constexpr int64_t kServers = 1200;
  RegionConfig config;
  config.name = "ingest-1200";
  config.num_servers = static_cast<int>(kServers);
  config.weeks = 4;
  config.seed = 42;
  Fleet fleet = Fleet::Generate(config);
  const std::string block = ExtractWeekBlock(fleet, 3);
  const std::string csv = WeekCsv(block);
  auto info = PeekSeriesBlock(block);
  info.status().Abort();
  const int64_t rows = info->total_samples;

  auto min_millis_of_3 = [](auto&& body) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      body();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      if (rep == 0 || ms < best) best = ms;
    }
    return best;
  };
  const double csv_ms = min_millis_of_3([&] { ImportCsv(csv); });
  auto stream_decode = [&] {
    auto cursor = SeriesBlockCursor::Open(std::string_view(block));
    cursor.status().Abort();
    std::vector<ServerTelemetry> servers;
    servers.reserve(static_cast<size_t>(cursor->size()));
    StreamSeriesBlockServers(*cursor, [&](ServerTelemetry&& st) {
      servers.push_back(std::move(st));
      return Status::OK();
    }).Abort();
    benchmark::DoNotOptimize(servers.size());
  };
  const double stream_ms = min_millis_of_3(stream_decode);

  auto per_sec = [](double count, double ms) {
    return ms > 0.0 ? count * 1000.0 / ms : 0.0;
  };
  std::printf("%-28s %10.1f ms  %12.0f rows/s  %8.1f MB/s\n", "import (csv)",
              csv_ms, per_sec(static_cast<double>(rows), csv_ms),
              per_sec(static_cast<double>(csv.size()), csv_ms) / 1e6);
  std::printf("%-28s %10.1f ms  %12.0f rows/s  %8.1f MB/s\n",
              "ingest (streaming)", stream_ms,
              per_sec(static_cast<double>(rows), stream_ms),
              per_sec(static_cast<double>(block.size()), stream_ms) / 1e6);

  // Decode memory footprint: the kernel's RSS high-water growth across
  // one decode in a forked child, whose watermark starts at its own
  // resident size (bench::RunInChild). The decode retains the grouped
  // output (what the ingest module does), so the peak is that output
  // plus one server's LoadSeries in flight — no whole-block column
  // scratch. -1 when it cannot be measured.
  const Result<std::string> measured = bench::RunInChild([&] {
    const int64_t before = ReadPeakRssBytes();
    stream_decode();
    const int64_t after = ReadPeakRssBytes();
    return std::to_string(before < 0 || after < 0 ? -1 : after - before);
  });
  const int64_t stream_peak =
      measured.ok() ? ParseInt64(*measured).ValueOr(-1) : -1;
  const double stream_peak_per_server =
      static_cast<double>(stream_peak) / static_cast<double>(kServers);
  if (stream_peak >= 0) {
    std::printf("%-28s %10.1f MB peak (%6.0f bytes/server)\n",
                "decode footprint", static_cast<double>(stream_peak) / 1e6,
                stream_peak_per_server);
  } else {
    std::printf("%-28s %10s (%s)\n", "decode footprint", "n/a",
                measured.ok() ? "no VmHWM in /proc/self/status"
                              : measured.status().ToString().c_str());
  }

  // Encode plane: `ExtractWeekBlockTo` — two deterministic generation
  // passes, timestamps streamed in chunks, values buffered. The
  // writer's resident cost is its own high-water accounting, exact and
  // allocator-independent.
  int64_t writer_peak = 0;
  const double stream_encode_ms = min_millis_of_3([&] {
    int64_t bytes = 0;
    ExtractWeekBlockTo(fleet, 3,
                       [&](std::string_view b) {
                         bytes += static_cast<int64_t>(b.size());
                         return Status::OK();
                       },
                       &writer_peak)
        .Abort();
    benchmark::DoNotOptimize(bytes);
  });
  std::printf("%-28s %10.1f ms  %10.1f MB resident (writer accounting)\n",
              "encode (streaming)", stream_encode_ms,
              static_cast<double>(writer_peak) / 1e6);

  Json out = Json::MakeObject();
  out["benchmark"] = "ingest_data_plane";
  out["hardware_threads"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  out["servers"] = kServers;
  out["rows"] = rows;
  Json csv_j = Json::MakeObject();
  csv_j["bytes"] = static_cast<int64_t>(csv.size());
  csv_j["millis"] = csv_ms;
  csv_j["rows_per_sec"] = per_sec(static_cast<double>(rows), csv_ms);
  csv_j["bytes_per_sec"] = per_sec(static_cast<double>(csv.size()), csv_ms);
  out["csv"] = std::move(csv_j);
  Json stream_j = Json::MakeObject();
  stream_j["bytes"] = static_cast<int64_t>(block.size());
  stream_j["millis"] = stream_ms;
  stream_j["rows_per_sec"] = per_sec(static_cast<double>(rows), stream_ms);
  stream_j["bytes_per_sec"] =
      per_sec(static_cast<double>(block.size()), stream_ms);
  out["streaming"] = std::move(stream_j);
  Json foot_j = Json::MakeObject();
  foot_j["streaming_peak_bytes"] = stream_peak;
  foot_j["streaming_bytes_per_server"] = stream_peak_per_server;
  out["decode_footprint"] = std::move(foot_j);
  Json enc_j = Json::MakeObject();
  enc_j["streaming_millis"] = stream_encode_ms;
  enc_j["streaming_resident_bytes"] = writer_peak;
  out["encode"] = std::move(enc_j);
  (void)bench::WriteBenchJson("BENCH_ingest.json", out);

  // `--budgets`: gate the decode footprint against the `ingest_memory`
  // section (tools/check.sh scale wires this up).
  int violations = 0;
  if (!budgets_path.empty()) {
    auto budgets = bench::LoadBudgets(budgets_path, "ingest_memory");
    if (!budgets.ok()) {
      std::fprintf(stderr, "%s\n", budgets.status().ToString().c_str());
      return 1;
    }
    const double ceiling =
        (*budgets)["max_decode_peak_bytes_per_server"].AsDouble();
    if (stream_peak < 0) {
      std::fprintf(stderr,
                   "ingest_memory budget not met: the decode footprint "
                   "could not be measured\n");
      ++violations;
    } else if (stream_peak_per_server > ceiling) {
      std::fprintf(stderr,
                   "ingest_memory budget exceeded: decode peak %.0f "
                   "bytes/server > ceiling %.0f (if intentional, "
                   "re-baseline tests/budgets.json)\n",
                   stream_peak_per_server, ceiling);
      ++violations;
    } else {
      std::printf("ingest_memory budgets OK (%s)\n", budgets_path.c_str());
    }
  }
  return violations;
}

}  // namespace

BENCHMARK(BM_MinAverageWindow)->Arg(1)->Arg(7);
BENCHMARK(BM_BucketRatio)->Arg(1)->Arg(7);
BENCHMARK(BM_TelemetryCsvParse)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IngestCsv)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IngestStreaming)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SsaFit)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateLoadWeek)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  std::string budgets_path;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--budgets=", 10) == 0) {
      budgets_path = argv[i] + 10;
    } else {
      argv[out_argc++] = argv[i];  // leave the rest for the benchmark lib
    }
  }
  argc = out_argc;
  const int violations = RunIngestTrajectory(budgets_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return violations == 0 ? 0 : 1;
}
