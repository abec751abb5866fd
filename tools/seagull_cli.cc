/// \file seagull_cli.cc
/// \brief `seagull` — operational command line for the Seagull stores.
///
/// Drives the same library code the simulation uses, but against
/// persistent state on disk (a lake directory and a document-store JSON
/// snapshot), the way an operator would:
///
///   seagull generate  --lake DIR --region NAME [--servers N] [--weeks W] [--seed S]
///   seagull pipeline  --lake DIR --docs FILE --region NAME[,NAME...] --week K
///                     [--model FAMILY] [--jobs N] [--retries N]
///                     [--fault-rate P --fault-seed S]
///                     [--trace-out FILE] [--metrics-out FILE]
///   seagull schedule  --lake DIR --docs FILE --region NAME[,NAME...] --day D
///                     [--jobs N] [--retries N]
///                     [--fault-rate P --fault-seed S]
///
/// `--fault-rate`/`--fault-seed` enable the deterministic fault
/// substrate (common/fault.h) on the store layer — the operational
/// rehearsal for transient Azure failures. Regions that exhaust
/// `--retries` are quarantined, not fatal.
///
/// `--trace-out` writes a Chrome trace_event JSON of the run's span
/// tree (load in chrome://tracing or ui.perfetto.dev); `--metrics-out`
/// writes the process metrics snapshot (see DESIGN.md "Observability").
///   seagull transcode --lake DIR --key KEY [--to csv|binary] [--out KEY]
///   seagull dashboard --docs FILE
///   seagull incidents --docs FILE --region NAME
///   seagull advise    --lake DIR --docs FILE --region NAME --server ID
///                     --day D --start HH:MM [--duration MIN]
///   seagull serve     --lake DIR --docs FILE --region NAME [--week K]
///                     | --synthetic [--servers N] [--seed S]
///                     [--horizon MIN] [--jobs N]
///   seagull loadtest  (same bootstrap flags as serve)
///                     [--profile ramp|spike|soak] [--mode open|closed]
///                     [--ticks N] [--base N] [--clients N] [--jobs N]
///                     [--batch-frac F] [--batch-size N]
///                     [--subscribe-frac F] [--out FILE]
///
/// `serve` boots the streaming `ServingEngine` (src/serving) over the
/// region's telemetry tails and active model, then answers JSON-line
/// requests from stdin (predict — single or batched via a `servers`
/// array — / ll_window / subscribe_ll / unsubscribe / ingest); the
/// extra `{"verb":"tick"}` line advances the simulated 5-minute epoch
/// the way a production timer would, printing any subscription
/// notifications the swap fired. `loadtest` drives the same engine with the
/// deterministic open/closed-loop generators from bench/loadgen.
/// `--synthetic` serves a generated fleet with the persistent-prev-day
/// champion instead of lake + docs state — no prior pipeline run needed.
///
/// `generate` plays the role of Azure telemetry + Load Extraction,
/// streaming SGB1 (SeriesBlock) blobs, the only telemetry format the
/// other commands read; `transcode` is the CSV import/export edge,
/// converting a stored blob from SGB1 to CSV or back, in place (or to
/// `--out`). Everything else is the production path.
///
/// Each command accepts exactly the flags listed above (see
/// `Commands()`); any other `--flag` — a typo such as `--job`, or a
/// removed option — fails with exit 2 before the command does any
/// work. Numeric flags are parsed and range-checked (`kFlagRanges`)
/// once, also before any work: a value that is not a finite number, or
/// is out of range, fails with exit 1 (`--servers must be a number`,
/// `--servers must be in [1, 1000000]`). `--jobs` sizes the command's
/// one worker pool and must lie in [1, 256].

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "forecast/persistent.h"
#include "serving/loadgen.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/strings.h"
#include "pipeline/dashboard.h"
#include "pipeline/fleet_runner.h"
#include "pipeline/incidents.h"
#include "pipeline/scheduler.h"
#include "scheduling/backup_scheduler.h"
#include "scheduling/window_advisor.h"
#include "telemetry/emitter.h"
#include "telemetry/series_block.h"

using namespace seagull;

namespace {

/// Flags whose values must parse as integers / as numbers
/// (`Args::ParseNumbers`).
const char* const kIntegerFlags[] = {
    "servers", "weeks", "seed", "week", "day", "duration", "retries",
    "fault-seed", "horizon", "ticks", "base", "clients", "batch-size",
    "jobs"};
const char* const kNumberFlags[] = {"fault-rate", "batch-frac",
                                    "subscribe-frac"};

bool IsOneOf(const std::string& key, const auto& names) {
  return std::find(std::begin(names), std::end(names), key) != std::end(names);
}

/// Ceiling on `--jobs`. Each job is one OS thread of the command's pool,
/// so the flag must not let a typo (or a hostile wrapper) ask a
/// long-lived `serve` for tens of thousands of threads; 256 is far
/// above any core count the fleet runs on.
constexpr int64_t kMaxJobs = 256;
/// Ceiling on `--servers`: the largest fleet the scale bench runs.
constexpr int64_t kMaxServers = 1'000'000;
/// Ceiling on `--weeks`: ten years of weekly extractions.
constexpr int64_t kMaxWeeks = 520;

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// The closed range a numeric flag's value must lie in. Flags not
/// listed take any value.
struct FlagRange {
  const char* name;
  double min;
  double max;
};
constexpr FlagRange kFlagRanges[] = {
    {"jobs", 1, kMaxJobs},           {"servers", 1, kMaxServers},
    {"weeks", 1, kMaxWeeks},         {"week", 0, kUnbounded},
    {"day", 0, kUnbounded},          {"horizon", 1, kTailCapMinutes},
    {"ticks", 1, kUnbounded},        {"base", 1, kUnbounded},
    {"clients", 1, kUnbounded},      {"batch-size", 1, kUnbounded},
    {"fault-rate", 0, 1},            {"batch-frac", 0, 1},
    {"subscribe-frac", 0, 1},        {"duration", 1, kMinutesPerDay}};

/// Checks `value` of flag `key` against its range, naming the flag and
/// the bound: "--servers must be in [1, 1000000]", "--week must be >= 0".
Status CheckRange(const std::string& key, double value) {
  for (const FlagRange& range : kFlagRanges) {
    if (key != range.name) continue;
    if (value >= range.min && value <= range.max) break;
    return Status::Invalid(
        range.max == kUnbounded
            ? StringPrintf("--%s must be >= %.0f", range.name, range.min)
            : StringPrintf("--%s must be in [%.0f, %.0f]", range.name,
                           range.min, range.max));
  }
  return Status::OK();
}

/// Minimal --flag value parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      order_.push_back(key);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";  // boolean flag
      }
    }
  }

  /// The first flag, in command-line order, that is not in `known`;
  /// empty when every flag is known.
  std::string FirstUnknown(const std::vector<std::string>& known) const {
    for (const std::string& key : order_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        return key;
      }
    }
    return "";
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// The one parse and range check of every numeric flag given, in
  /// command-line order; the first value that is not a finite number,
  /// or lies outside its flag's range, fails naming its flag.
  Status ParseNumbers() {
    for (const std::string& key : order_) {
      const std::string& text = values_.at(key);
      bool ok = true;
      double value = 0.0;
      if (IsOneOf(key, kIntegerFlags)) {
        auto v = ParseInt64(text);
        ok = v.ok();
        if (ok) value = static_cast<double>(ints_[key] = *v);
      } else if (IsOneOf(key, kNumberFlags)) {
        auto v = ParseDouble(text);
        ok = v.ok();
        if (ok) value = doubles_[key] = *v;
      }
      if (!ok) return Status::Invalid("--" + key + " must be a number");
      SEAGULL_RETURN_NOT_OK(CheckRange(key, value));
    }
    return Status::OK();
  }

  /// An integer flag's parsed value, or `fallback` when it is absent.
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = ints_.find(key);
    return it == ints_.end() ? fallback : it->second;
  }

  /// A number flag's parsed value, or `fallback` when it is absent.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = doubles_.find(key);
    return it == doubles_.end() ? fallback : it->second;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Fails fast when a required flag is absent.
  Result<std::string> Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::Invalid("missing required flag --" + key);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;  ///< flag names as given
  std::map<std::string, int64_t> ints_;    ///< filled by ParseNumbers
  std::map<std::string, double> doubles_;  ///< filled by ParseNumbers
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<DocStore*> OpenDocs(const std::string& path) {
  static DocStore docs;  // one store per process invocation
  if (!path.empty()) {
    Status st = docs.LoadFromFile(path);
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  return &docs;
}

/// Reads the latest telemetry for one region from the lake and groups it
/// per server (the online components' view of "recent load"). Each read
/// runs under `retry`, so transient blob faults are retried the way the
/// production reader would.
Result<std::vector<ServerTelemetry>> LoadTelemetry(const LakeStore& lake,
                                                   const RetryPolicy& retry,
                                                   const std::string& region,
                                                   int64_t up_to_week) {
  for (int64_t w = up_to_week; w >= 0; --w) {
    std::string key = LakeStore::TelemetryKey(region, w);
    BlobRef blob;
    const RetryOutcome read = RunWithRetry(retry, "lake.get/" + key, [&] {
      SEAGULL_ASSIGN_OR_RETURN(blob, lake.GetBlob(key));
      return Status::OK();
    });
    if (read.status.IsNotFound()) continue;
    if (!read.status.ok()) return read.status;
    // The decode consumes the view before the ref (and any mapping) is
    // released. A blob that is not SGB1 fails here, naming the format.
    return DecodeTelemetryBlob(blob.view());
  }
  return Status::NotFound("no telemetry for region " + region);
}

/// Parses `--retries` / `--fault-rate` / `--fault-seed`: returns the
/// retry policy and, when a fault rate is given, enables the global
/// fault registry for this invocation.
RetryPolicy ConfigureResilience(const Args& args) {
  RetryPolicy retry;
  retry.max_attempts =
      static_cast<int>(args.GetInt("retries", retry.max_attempts));
  retry.jitter_seed = static_cast<uint64_t>(args.GetInt("fault-seed", 0));
  const double fault_rate = args.GetDouble("fault-rate", 0.0);
  if (fault_rate > 0.0) {
    FaultConfig faults;
    faults.seed = static_cast<uint64_t>(args.GetInt("fault-seed", 0));
    faults.rate = fault_rate;
    FaultRegistry::Global().Configure(faults);
    std::fprintf(stderr,
                 "fault injection enabled: rate %.4f seed %llu\n",
                 fault_rate,
                 static_cast<unsigned long long>(faults.seed));
  }
  return retry;
}

/// Writes one observability artifact through the lake layer: the output
/// path's directory becomes a `LakeStore` root and the basename the
/// object key, so traces and metrics snapshots travel the same store
/// abstraction as telemetry (and inherit its atomic tmp+rename write).
Status WriteObsArtifact(const std::string& path, const std::string& body) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string key =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (key.empty()) return Status::Invalid("output path is a directory: " + path);
  SEAGULL_ASSIGN_OR_RETURN(LakeStore out,
                           LakeStore::Open(dir.empty() ? "/" : dir));
  return out.Put(key, body);
}

int CmdGenerate(const Args& args) {
  auto lake_dir = args.Require("lake");
  auto region_name = args.Require("region");
  if (!lake_dir.ok()) return Fail(lake_dir.status());
  if (!region_name.ok()) return Fail(region_name.status());

  RegionConfig config;
  config.name = *region_name;
  config.num_servers = static_cast<int>(args.GetInt("servers", 200));
  config.weeks = static_cast<int>(args.GetInt("weeks", 5));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  auto lake = LakeStore::Open(*lake_dir);
  if (!lake.ok()) return Fail(lake.status());
  Fleet fleet = Fleet::Generate(config);
  for (int64_t w = 0; w < config.weeks; ++w) {
    std::string key = LakeStore::TelemetryKey(config.name, w);
    // Streaming extraction: SGB1 bytes go from the writer straight into
    // the atomic put, so even a huge region never materializes its rows
    // or its blob.
    Status st = lake->PutStreamed(key, [&](std::ostream& out) {
      return ExtractWeekBlockTo(
          fleet, w, [&](std::string_view bytes) -> Status {
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
            if (!out) return Status::IOError("short write: " + key);
            return Status::OK();
          });
    });
    if (!st.ok()) return Fail(st);
    auto size = lake->SizeOf(key);
    std::printf("wrote %s (%.1f MB)\n", key.c_str(),
                static_cast<double>(size.ValueOr(0)) / (1024.0 * 1024.0));
  }
  std::printf("generated %d servers x %d weeks for region %s\n",
              config.num_servers, config.weeks, config.name.c_str());
  return 0;
}

int CmdPipeline(const Args& args) {
  const int jobs = static_cast<int>(args.GetInt("jobs", 1));
  auto lake_dir = args.Require("lake");
  auto docs_path = args.Require("docs");
  auto region = args.Require("region");
  if (!lake_dir.ok()) return Fail(lake_dir.status());
  if (!docs_path.ok()) return Fail(docs_path.status());
  if (!region.ok()) return Fail(region.status());
  int64_t week = args.GetInt("week", -1);
  if (week < 0) return Fail(Status::Invalid("missing required flag --week"));

  auto lake = LakeStore::Open(*lake_dir);
  if (!lake.ok()) return Fail(lake.status());
  auto docs = OpenDocs(*docs_path);
  if (!docs.ok()) return Fail(docs.status());
  // After the snapshot load: the rehearsal faults the pipeline's store
  // traffic, not the CLI's own bootstrap.
  RetryPolicy retry = ConfigureResilience(args);

  // --trace-out enables span collection for this invocation only; the
  // sink stays disabled (one relaxed load per span site) otherwise.
  const std::string trace_out = args.Get("trace-out");
  const std::string metrics_out = args.Get("metrics-out");
  if (!trace_out.empty()) {
    TraceSink::Global().Clear();
    TraceSink::Global().Enable();
  }

  PipelineContext config;
  config.model_name = args.Get("model", "persistent_prev_day");

  // Fan regions across the fleet engine: one pool of --jobs N workers
  // runs the region pipelines and their per-server loops; jobs=1 is the
  // sequential reference.
  std::vector<std::string> regions = SplitString(*region, ',');
  FleetOptions fleet_options;
  fleet_options.jobs = jobs;
  fleet_options.retry = retry;
  FleetRunner runner(&*lake, *docs, fleet_options);
  std::vector<FleetJob> fleet_jobs;
  for (const auto& r : regions) fleet_jobs.push_back({r, week});
  FleetRunResult fleet = runner.Run(fleet_jobs, config);

  bool all_ok = true;
  for (size_t i = 0; i < fleet.runs.size(); ++i) {
    const auto& run = fleet.runs[i];
    const std::string& r = regions[i];
    if (run.report.timings.empty()) {
      std::printf("region %s not due at week %lld (already ran)\n",
                  r.c_str(), static_cast<long long>(week));
      continue;
    }
    std::printf("pipeline %s week %lld: %s (%.1f ms)\n", r.c_str(),
                static_cast<long long>(week),
                run.report.success ? "ok" : "FAILED",
                run.report.TotalMillis());
    for (const auto& t : run.report.timings) {
      std::printf("  %-12s %10.1f ms %s\n", t.module.c_str(), t.millis,
                  t.ok ? "" : "FAILED");
    }
    for (const auto& alert : run.alerts) {
      std::printf("ALERT [%s] %s\n", alert.rule.c_str(),
                  alert.message.c_str());
    }
    all_ok = all_ok && run.report.success;
  }
  for (const auto& q : fleet.quarantined) {
    std::printf("QUARANTINED %s week %lld: %s\n", q.region.c_str(),
                static_cast<long long>(q.week), q.reason.c_str());
  }
  if (regions.size() > 1 || fleet.TotalRetries() > 0) {
    std::printf("fleet: %lld regions, %lld ok, %lld failed, %lld "
                "quarantined, %lld retries, %d jobs, %.1f ms wall\n",
                static_cast<long long>(fleet.runs.size()),
                static_cast<long long>(fleet.SuccessCount()),
                static_cast<long long>(fleet.FailureCount()),
                static_cast<long long>(fleet.quarantined.size()),
                static_cast<long long>(fleet.TotalRetries()), fleet.jobs,
                fleet.wall_millis);
  }
  // The post-run snapshot save must not be chaos-faulted, and neither
  // may the observability artifacts below.
  FaultRegistry::Global().Disable();
  Status st = (*docs)->SaveToFile(*docs_path);
  if (!st.ok()) return Fail(st);
  if (!trace_out.empty()) {
    TraceSink::Global().Disable();
    Status ts =
        WriteObsArtifact(trace_out,
                         TraceSink::Global().ToChromeTrace().DumpPretty());
    if (!ts.ok()) return Fail(ts);
    std::fprintf(stderr, "wrote %lld spans to %s (%lld dropped)\n",
                 static_cast<long long>(TraceSink::Global().EventCount()),
                 trace_out.c_str(),
                 static_cast<long long>(TraceSink::Global().dropped()));
  }
  if (!metrics_out.empty()) {
    Status ms = WriteObsArtifact(
        metrics_out,
        MetricsRegistry::Global().Snapshot().ToJson().DumpPretty());
    if (!ms.ok()) return Fail(ms);
    std::fprintf(stderr, "wrote metrics snapshot to %s\n",
                 metrics_out.c_str());
  }
  // A quarantined fleet still exits non-zero so operators notice, but
  // only after every healthy region's results are persisted.
  return all_ok ? 0 : 1;
}

int CmdSchedule(const Args& args) {
  const int jobs = static_cast<int>(args.GetInt("jobs", 1));
  auto lake_dir = args.Require("lake");
  auto docs_path = args.Require("docs");
  auto region = args.Require("region");
  if (!lake_dir.ok()) return Fail(lake_dir.status());
  if (!docs_path.ok()) return Fail(docs_path.status());
  if (!region.ok()) return Fail(region.status());
  int64_t day = args.GetInt("day", -1);
  if (day < 0) return Fail(Status::Invalid("missing required flag --day"));

  auto lake = LakeStore::Open(*lake_dir);
  if (!lake.ok()) return Fail(lake.status());
  auto docs = OpenDocs(*docs_path);
  if (!docs.ok()) return Fail(docs.status());
  const RetryPolicy retry = ConfigureResilience(args);

  // One region's daily pass, rendered to a string so multi-region runs
  // can print in region order regardless of completion order.
  auto schedule_region =
      [&](const std::string& r) -> Result<std::string> {
    SEAGULL_ASSIGN_OR_RETURN(auto telemetry,
                             LoadTelemetry(*lake, retry, r, day / 7));

    // Servers due on `day`: default window falls on that weekday.
    std::vector<DueServer> due;
    for (const auto& st : telemetry) {
      if (DayOfWeekOf(st.default_backup_start) !=
          DayOfWeekOf(day * kMinutesPerDay)) {
        continue;
      }
      DueServer d;
      d.server_id = st.server_id;
      d.recent_load = st.load.Slice(st.load.start(), day * kMinutesPerDay);
      // Rebase the default window onto this day.
      d.default_start = day * kMinutesPerDay +
                        MinuteOfDay(st.default_backup_start);
      d.default_end = d.default_start + st.backup_duration_minutes();
      d.backup_duration_minutes = st.backup_duration_minutes();
      due.push_back(std::move(d));
    }

    ServiceFabricProperties properties;
    BackupScheduler backup_scheduler(*docs, &properties);
    auto schedules = backup_scheduler.ScheduleDay(r, day, due);
    std::string out;
    out += StringPrintf("%-24s %-24s %-8s %s\n", "server", "decision",
                        "window", "moved");
    for (const auto& s : schedules) {
      out += StringPrintf("%-24s %-24s %-8s %s\n", s.server_id.c_str(),
                          ScheduleDecisionName(s.decision),
                          FormatTimeOfDay(MinuteOfDay(s.window_start))
                              .c_str(),
                          s.moved() ? "yes" : "");
    }
    out += StringPrintf("%zu servers due, %lld moved to low-load "
                        "windows\n",
                        schedules.size(),
                        static_cast<long long>(std::count_if(
                            schedules.begin(), schedules.end(),
                            [](const ScheduledBackup& s) {
                              return s.moved();
                            })));
    return out;
  };

  std::vector<std::string> regions = SplitString(*region, ',');
  std::vector<Result<std::string>> rendered(
      regions.size(), Result<std::string>(std::string()));
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1 && regions.size() > 1) {
    pool = std::make_unique<ThreadPool>(jobs);
  }
  ParallelFor(
      pool.get(), static_cast<int64_t>(regions.size()),
      [&](int64_t i) {
        rendered[static_cast<size_t>(i)] =
            schedule_region(regions[static_cast<size_t>(i)]);
      },
      /*grain=*/1);
  for (size_t i = 0; i < regions.size(); ++i) {
    if (!rendered[i].ok()) return Fail(rendered[i].status());
    if (regions.size() > 1) {
      std::printf("--- region %s day %lld ---\n", regions[i].c_str(),
                  static_cast<long long>(day));
    }
    std::printf("%s", rendered[i]->c_str());
  }
  return 0;
}

int CmdDashboard(const Args& args) {
  auto docs_path = args.Require("docs");
  if (!docs_path.ok()) return Fail(docs_path.status());
  auto docs = OpenDocs(*docs_path);
  if (!docs.ok()) return Fail(docs.status());
  Dashboard dashboard(*docs);
  std::printf("%s", dashboard.Render().c_str());
  return 0;
}

int CmdIncidents(const Args& args) {
  auto docs_path = args.Require("docs");
  auto region = args.Require("region");
  if (!docs_path.ok()) return Fail(docs_path.status());
  if (!region.ok()) return Fail(region.status());
  auto docs = OpenDocs(*docs_path);
  if (!docs.ok()) return Fail(docs.status());
  IncidentManager manager(*docs);
  auto history = manager.History(*region);
  if (history.empty()) {
    std::printf("no incidents for region %s\n", region->c_str());
    return 0;
  }
  for (const auto& doc : history) {
    std::printf("[%s] week %lld %s: %s\n",
                doc.body.GetString("severity").ValueOr("?").c_str(),
                static_cast<long long>(doc.body.GetInt64("week").ValueOr(-1)),
                doc.body.GetString("module").ValueOr("?").c_str(),
                doc.body.GetString("message").ValueOr("").c_str());
  }
  return 0;
}

int CmdAdvise(const Args& args) {
  auto lake_dir = args.Require("lake");
  auto docs_path = args.Require("docs");
  auto region = args.Require("region");
  auto server = args.Require("server");
  auto start_str = args.Require("start");
  if (!lake_dir.ok()) return Fail(lake_dir.status());
  if (!docs_path.ok()) return Fail(docs_path.status());
  if (!region.ok()) return Fail(region.status());
  if (!server.ok()) return Fail(server.status());
  if (!start_str.ok()) return Fail(start_str.status());
  int64_t day = args.GetInt("day", -1);
  if (day < 0) return Fail(Status::Invalid("missing required flag --day"));
  int64_t duration = args.GetInt("duration", 60);

  // Parse HH:MM, a time of day on --day.
  const Status bad_start = Status::Invalid(
      "--start must be HH:MM with HH in [0, 23] and MM in [0, 59]");
  auto parts = SplitString(*start_str, ':');
  if (parts.size() != 2) return Fail(bad_start);
  auto hh = ParseInt64(parts[0]);
  auto mm = ParseInt64(parts[1]);
  if (!hh.ok() || !mm.ok() || *hh < 0 || *hh > 23 || *mm < 0 || *mm > 59) {
    return Fail(bad_start);
  }
  MinuteStamp customer_start = day * kMinutesPerDay + *hh * 60 + *mm;

  auto lake = LakeStore::Open(*lake_dir);
  if (!lake.ok()) return Fail(lake.status());
  auto docs = OpenDocs(*docs_path);
  if (!docs.ok()) return Fail(docs.status());
  auto endpoint = LoadActiveEndpoint(*docs, *region);
  if (!endpoint.ok()) return Fail(endpoint.status());

  auto telemetry = LoadTelemetry(*lake, RetryPolicy{}, *region, day / 7);
  if (!telemetry.ok()) return Fail(telemetry.status());
  const ServerTelemetry* found = nullptr;
  for (const auto& st : *telemetry) {
    if (st.server_id == *server) found = &st;
  }
  if (found == nullptr) {
    return Fail(Status::NotFound("no telemetry for server " + *server));
  }
  LoadSeries recent =
      found->load.Slice(found->load.start(), day * kMinutesPerDay);
  auto advice = AdviseCustomerWindow(*endpoint, *server, recent,
                                     customer_start, duration);
  if (!advice.ok()) return Fail(advice.status());
  std::printf("customer window %s (+%lldmin): predicted load %.1f%%\n",
              start_str->c_str(), static_cast<long long>(duration),
              advice->customer_window_load);
  if (advice->customer_window_ok) {
    std::printf("verdict: fine — within tolerance of the predicted "
                "lowest-load window\n");
  } else {
    std::printf("verdict: suggest %s instead (predicted %.1f%%, saves "
                "%.1f points)\n",
                FormatTimeOfDay(MinuteOfDay(advice->suggested.start))
                    .c_str(),
                advice->suggested.average_load, advice->predicted_saving);
  }
  return 0;
}

/// The CSV import/export edge: the pipeline reads SGB1 only, so CSV
/// telemetry comes in (and goes out) through here.
int CmdTranscode(const Args& args) {
  auto lake_dir = args.Require("lake");
  auto key = args.Require("key");
  if (!lake_dir.ok()) return Fail(lake_dir.status());
  if (!key.ok()) return Fail(key.status());

  auto lake = LakeStore::Open(*lake_dir);
  if (!lake.ok()) return Fail(lake.status());
  // The source stays mapped while the result is written, also when it
  // goes back to the same key: both puts stage a tmp file and rename it
  // over the key, so the mapping keeps the old inode alive.
  auto blob = lake->GetBlob(*key);
  if (!blob.ok()) return Fail(blob.status());
  const std::string_view source = blob->view();

  const bool is_block = IsSeriesBlock(source);
  const std::string to = args.Get("to", is_block ? "csv" : "binary");
  if (to != "csv" && to != "binary") {
    return Fail(Status::Invalid("--to must be csv or binary"));
  }
  const std::string out_key = args.Get("out", *key);

  // Both directions run through TelemetryRecord rows, so a transcode
  // round trip reproduces the original bytes: SGB1 stores each value as
  // `QuantizeFixed4`, the function the CSV writer prints with.
  std::string converted;
  int64_t rows = 0;
  int64_t streamed_bytes = -1;  // >= 0 once the streamed path has written
  if (to == "binary") {
    if (is_block) {
      converted.assign(source);  // already binary; re-put verbatim
      auto info = PeekSeriesBlock(converted);
      if (!info.ok()) return Fail(info.status());
      rows = info->total_samples;
    } else {
      auto records = ParseTelemetryCsv(source);
      if (!records.ok()) return Fail(records.status());
      rows = static_cast<int64_t>(records->size());
      // Stream the encode straight into the atomic put: the SGB1 bytes
      // go incrementally from the writer to the staged file, never
      // materializing the blob string.
      int64_t written = 0;
      Status put = lake->PutStreamed(out_key, [&](std::ostream& out) {
        return WriteSeriesBlockFromRecords(
            *records, kServerIntervalMinutes,
            [&](std::string_view bytes) -> Status {
              out.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size()));
              if (!out) return Status::IOError("short write: " + out_key);
              written += static_cast<int64_t>(bytes.size());
              return Status::OK();
            });
      });
      if (!put.ok()) return Fail(put);
      streamed_bytes = written;
    }
  } else {
    if (!is_block) {
      converted.assign(source);
      auto records = ParseTelemetryCsv(converted);
      if (!records.ok()) return Fail(records.status());
      rows = static_cast<int64_t>(records->size());
    } else {
      auto records = DecodeSeriesBlock(source);
      if (!records.ok()) return Fail(records.status());
      rows = static_cast<int64_t>(records->size());
      converted = RecordsToCsvText(*records);
    }
  }
  if (streamed_bytes < 0) {
    Status st = lake->Put(out_key, converted);
    if (!st.ok()) return Fail(st);
    streamed_bytes = static_cast<int64_t>(converted.size());
  }
  std::printf("transcoded %s (%s, %zu bytes) -> %s (%s, %lld bytes), "
              "%lld rows\n",
              key->c_str(), is_block ? "binary" : "csv", blob->size(),
              out_key.c_str(), to.c_str(),
              static_cast<long long>(streamed_bytes),
              static_cast<long long>(rows));
  return 0;
}

/// Bootstrap inputs of the serving engine: the deployed endpoint plus
/// one telemetry tail per server.
struct ServingSetup {
  ModelEndpoint endpoint;
  std::vector<ServerTelemetry> tails;
};

/// `--synthetic` serving state: a generated one-week fleet with the
/// fleet-wide persistent-prev-day champion (heuristic family, so one
/// model serves every server) — lets serve/loadtest run without a lake
/// or a prior pipeline deployment.
Result<ServingSetup> SyntheticSetup(const Args& args) {
  RegionConfig config;
  config.name = args.Get("region", "serve");
  config.num_servers = static_cast<int>(args.GetInt("servers", 200));
  config.weeks = 1;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  Fleet fleet = Fleet::Generate(config);

  ServingSetup setup;
  setup.tails.reserve(fleet.servers().size());
  for (const auto& profile : fleet.servers()) {
    ServerTelemetry st;
    st.server_id = profile.server_id;
    st.load = fleet.ObservedLoad(profile, 0, kMinutesPerWeek);
    setup.tails.push_back(std::move(st));
  }

  PersistentForecast model(PersistentVariant::kPreviousDay);
  Json body = Json::MakeObject();
  body["family"] = "persistent_prev_day";
  body["version"] = 1;
  Json models = Json::MakeObject();
  SEAGULL_ASSIGN_OR_RETURN(Json serialized, model.Serialize());
  models[""] = std::move(serialized);
  body["models"] = std::move(models);
  SEAGULL_ASSIGN_OR_RETURN(setup.endpoint,
                           ModelEndpoint::FromVersionDoc(body));
  return setup;
}

/// Production serving state: the region's active model version from the
/// doc store plus its latest telemetry week from the lake.
Result<ServingSetup> LakeSetup(const Args& args) {
  SEAGULL_ASSIGN_OR_RETURN(std::string lake_dir, args.Require("lake"));
  SEAGULL_ASSIGN_OR_RETURN(std::string docs_path, args.Require("docs"));
  SEAGULL_ASSIGN_OR_RETURN(std::string region, args.Require("region"));
  SEAGULL_ASSIGN_OR_RETURN(LakeStore lake, LakeStore::Open(lake_dir));
  SEAGULL_ASSIGN_OR_RETURN(DocStore * docs, OpenDocs(docs_path));

  ServingSetup setup;
  SEAGULL_ASSIGN_OR_RETURN(setup.endpoint,
                           LoadActiveEndpoint(docs, region));
  SEAGULL_ASSIGN_OR_RETURN(
      setup.tails, LoadTelemetry(lake, ConfigureResilience(args), region,
                                 args.GetInt("week", 12)));
  return setup;
}

Result<ServingSetup> BuildServingSetup(const Args& args) {
  return args.Has("synthetic") ? SyntheticSetup(args) : LakeSetup(args);
}

/// Latest sample boundary across the fleet: where ingest increments
/// should start so they extend the tails.
MinuteStamp TailsEnd(const std::vector<ServerTelemetry>& tails) {
  MinuteStamp end = 0;
  for (const auto& st : tails) end = std::max(end, st.load.end());
  return end;
}

int CmdServe(const Args& args) {
  const int jobs = static_cast<int>(args.GetInt("jobs", 1));
  auto setup = BuildServingSetup(args);
  if (!setup.ok()) return Fail(setup.status());

  ServingOptions options;
  options.horizon_minutes =
      args.GetInt("horizon", options.horizon_minutes);
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) {
    pool = std::make_unique<ThreadPool>(jobs);
    options.pool = pool.get();
  }

  ServingEngine engine(std::move(setup->endpoint), options);
  Status st = engine.Bootstrap(setup->tails);
  if (!st.ok()) return Fail(st);
  TickResult boot = engine.Tick();  // initial fleet-wide forecasts
  std::fprintf(stderr,
               "serving %lld servers (model %s v%lld): %lld initial "
               "forecasts, %lld failed\n",
               static_cast<long long>(engine.server_count()),
               engine.endpoint().family().c_str(),
               static_cast<long long>(engine.endpoint().version()),
               static_cast<long long>(boot.refits),
               static_cast<long long>(boot.refit_failures));
  std::fprintf(stderr,
               "reading JSON requests from stdin; {\"verb\":\"tick\"} "
               "advances the 5-minute epoch\n");

  // JSON-lines REPL: one request per line, one response per line. The
  // tick verb is handled here, not in the engine — advancing the epoch
  // is the operator's (or timer's) call, not a client request.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    auto parsed = Json::Parse(line);
    if (parsed.ok() && parsed->Contains("verb") &&
        (*parsed)["verb"].AsString() == "tick") {
      std::printf("%s\n", engine.Tick().ToJson().Dump().c_str());
    } else {
      std::printf("%s\n", engine.Handle(line).c_str());
    }
    std::fflush(stdout);
  }
  std::fprintf(stderr,
               "served %lld requests (%lld errors) over %lld ticks\n",
               static_cast<long long>(engine.requests_served()),
               static_cast<long long>(engine.requests_failed()),
               static_cast<long long>(engine.tick()));
  return 0;
}

int CmdLoadtest(const Args& args) {
  const int jobs = static_cast<int>(args.GetInt("jobs", 1));
  auto setup = BuildServingSetup(args);
  if (!setup.ok()) return Fail(setup.status());
  auto profile = ParseLoadProfile(args.Get("profile", "ramp"));
  if (!profile.ok()) return Fail(profile.status());
  auto mode = ParseDriverMode(args.Get("mode", "open"));
  if (!mode.ok()) return Fail(mode.status());

  LoadgenOptions options;
  options.profile = *profile;
  options.mode = *mode;
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.ticks = args.GetInt("ticks", options.ticks);
  options.base_requests_per_tick =
      args.GetInt("base", options.base_requests_per_tick);
  options.closed_loop_clients = static_cast<int>(
      args.GetInt("clients", options.closed_loop_clients));
  options.jobs = jobs;
  options.batch_fraction = args.GetDouble("batch-frac", 0.0);
  options.batch_size = args.GetInt("batch-size", options.batch_size);
  options.subscribe_fraction = args.GetDouble("subscribe-frac", 0.0);
  options.epoch_start = TailsEnd(setup->tails);

  std::unique_ptr<ThreadPool> pool;
  ServingOptions serving;
  if (options.jobs > 1) {
    pool = std::make_unique<ThreadPool>(options.jobs);
    serving.pool = pool.get();
  }
  ServingEngine engine(std::move(setup->endpoint), serving);
  Status st = engine.Bootstrap(setup->tails);
  if (!st.ok()) return Fail(st);
  engine.Tick();  // initial forecasts so epoch-0 queries are served

  std::vector<std::string> ids;
  ids.reserve(setup->tails.size());
  for (const auto& tail : setup->tails) ids.push_back(tail.server_id);
  const auto schedule = BuildSchedule(options, ids);
  const LoadgenReport report = RunLoadTest(&engine, options, schedule);

  const LatencySummary predict = report.latency.count("predict")
                                     ? report.latency.at("predict")
                                     : LatencySummary{};
  std::printf(
      "%s/%s: %lld requests, %lld ok, %lld errors, %.0f rps\n"
      "  predict p50/p95/p99 %.0f/%.0f/%.0f us\n"
      "  ticks %lld, refits %lld (%.3f per query), max in-flight %lld\n"
      "  notifications %lld (mean lag %.2f ticks)\n"
      "  response digest %016llx\n",
      LoadProfileName(*profile), DriverModeName(*mode),
      static_cast<long long>(report.requests),
      static_cast<long long>(report.ok),
      static_cast<long long>(report.errors), report.throughput_rps,
      predict.p50, predict.p95, predict.p99,
      static_cast<long long>(report.ticks),
      static_cast<long long>(report.refits), report.refit_per_query,
      static_cast<long long>(report.max_in_flight),
      static_cast<long long>(report.notifications),
      report.notify_lag_ticks,
      static_cast<unsigned long long>(report.response_digest));

  const std::string out = args.Get("out");
  if (!out.empty()) {
    Status ws = WriteObsArtifact(out, report.ToJson().DumpPretty());
    if (!ws.ok()) return Fail(ws);
    std::printf("wrote report to %s\n", out.c_str());
  }
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: seagull <command> [flags]\n"
      "commands:\n"
      "  generate  --lake DIR --region NAME [--servers N] [--weeks W] "
      "[--seed S]\n"
      "  pipeline  --lake DIR --docs FILE --region NAME[,NAME...] "
      "--week K [--model FAMILY] [--jobs N] [--retries N] "
      "[--fault-rate P --fault-seed S] "
      "[--trace-out FILE] [--metrics-out FILE]\n"
      "  schedule  --lake DIR --docs FILE --region NAME[,NAME...] "
      "--day D [--jobs N] [--retries N] "
      "[--fault-rate P --fault-seed S]\n"
      "  transcode --lake DIR --key KEY [--to csv|binary] [--out KEY]"
      "   (CSV import/export)\n"
      "  dashboard --docs FILE\n"
      "  incidents --docs FILE --region NAME\n"
      "  advise    --lake DIR --docs FILE --region NAME --server ID "
      "--day D --start HH:MM [--duration MIN]\n"
      "  serve     (--lake DIR --docs FILE --region NAME [--week K] | "
      "--synthetic [--servers N] [--seed S]) [--horizon MIN] "
      "[--jobs N]\n"
      "  loadtest  (same bootstrap flags as serve) "
      "[--profile ramp|spike|soak] [--mode open|closed] [--ticks N] "
      "[--base N] [--clients N] [--jobs N] [--batch-frac F] "
      "[--batch-size N] [--subscribe-frac F] [--out FILE]\n"
      "unknown flags are rejected with exit status 2, numeric flags that "
      "do not parse with exit status 1\n");
}

/// One subcommand: its handler and every flag it reads.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> flags;
};

/// `base` followed by `more`: flag lists share groups.
std::vector<std::string> Join(std::vector<std::string> base,
                              const std::vector<std::string>& more) {
  base.insert(base.end(), more.begin(), more.end());
  return base;
}

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = [] {
    // Read by ConfigureResilience and by BuildServingSetup.
    const std::vector<std::string> resilience = {"retries", "fault-rate",
                                                 "fault-seed"};
    const std::vector<std::string> bootstrap =
        Join({"synthetic", "lake", "docs", "region", "week", "servers",
              "seed"},
             resilience);
    return std::vector<Command>{
        {"generate", CmdGenerate,
         {"lake", "region", "servers", "weeks", "seed"}},
        {"pipeline", CmdPipeline,
         Join({"lake", "docs", "region", "week", "model", "jobs", "trace-out",
               "metrics-out"},
              resilience)},
        {"schedule", CmdSchedule,
         Join({"lake", "docs", "region", "day", "jobs"}, resilience)},
        {"transcode", CmdTranscode, {"lake", "key", "to", "out"}},
        {"dashboard", CmdDashboard, {"docs"}},
        {"incidents", CmdIncidents, {"docs", "region"}},
        {"advise", CmdAdvise,
         {"lake", "docs", "region", "server", "day", "start", "duration"}},
        {"serve", CmdServe, Join(bootstrap, {"horizon", "jobs"})},
        {"loadtest", CmdLoadtest,
         Join(bootstrap, {"profile", "mode", "ticks", "base", "clients",
                          "jobs", "batch-frac", "batch-size",
                          "subscribe-frac", "out"})},
    };
  }();
  return commands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  Args args(argc, argv);
  const std::string command = argv[1];
  for (const Command& c : Commands()) {
    if (command != c.name) continue;
    const std::string unknown = args.FirstUnknown(c.flags);
    if (!unknown.empty()) {
      std::fprintf(stderr, "error: unknown flag --%s for %s\n",
                   unknown.c_str(), c.name);
      return 2;
    }
    Status numbers = args.ParseNumbers();
    if (!numbers.ok()) return Fail(numbers);
    return c.run(args);
  }
  Usage();
  return 2;
}
