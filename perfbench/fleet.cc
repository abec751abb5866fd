/// \file fleet.cc
/// \brief The weekly fleet cycle: `FleetRunner::Run` over SGB1-staged
/// regions, then the next week's seven `BackupScheduler::ScheduleDay`
/// passes per region over `DueServersForDay`.

#include <atomic>
#include <filesystem>
#include <ostream>

#include "common/obs/metrics.h"
#include "common/strings.h"
#include "phases.h"
#include "pipeline/accuracy.h"
#include "pipeline/deployment.h"
#include "pipeline/features.h"
#include "pipeline/inference.h"
#include "pipeline/ingestion.h"
#include "pipeline/tracking.h"
#include "pipeline/training.h"
#include "pipeline/validation.h"
#include "scheduling/simulation.h"
#include "telemetry/emitter.h"

namespace perfbench {

using namespace seagull;

namespace {

/// Modules of the standard chain, in the order the benchmark reports
/// them. The chain-drift guard checks this against a plain
/// `Pipeline::Standard()` run.
const std::vector<std::string>& ModuleNames() {
  static const std::vector<std::string> names = {
      "ingestion", "validation", "features", "training",
      "deployment", "inference", "accuracy", "tracking"};
  return names;
}

/// Shared by every wrapped module of one fleet iteration.
struct ChainProbe {
  SpanLog* spans = nullptr;
  int64_t fleet_start_ns = 0;
  std::atomic<int64_t> batch_groups{0};
};

/// Decorator that records one span around a module's `Run`. The last
/// module of a region also closes the region span, which opens when the
/// fleet runner builds the region's pipeline.
class TimedModule final : public PipelineModule {
 public:
  TimedModule(std::unique_ptr<PipelineModule> inner, ChainProbe* probe,
              int64_t region_start_ns, bool last)
      : inner_(std::move(inner)), probe_(probe),
        region_start_ns_(region_start_ns), last_(last) {}

  std::string name() const override { return inner_->name(); }

  Status Run(PipelineContext* ctx) override {
    const int64_t start = NowNs();
    Status st = inner_->Run(ctx);
    const int64_t end = NowNs();
    probe_->spans->Add("module." + inner_->name(), start, end);
    if (inner_->name() == "training") {
      auto it = ctx->stats.find("training.batch_groups");
      if (it != ctx->stats.end()) {
        probe_->batch_groups += static_cast<int64_t>(it->second);
      }
    }
    if (last_) probe_->spans->Add("region.run", region_start_ns_, end);
    return st;
  }

 private:
  std::unique_ptr<PipelineModule> inner_;
  ChainProbe* probe_;
  int64_t region_start_ns_;
  bool last_;
};

Pipeline WrappedStandard(ChainProbe* probe) {
  const int64_t region_start = NowNs();
  probe->spans->Add("region.queue", probe->fleet_start_ns, region_start);
  std::vector<std::unique_ptr<PipelineModule>> modules;
  modules.push_back(std::make_unique<DataIngestionModule>());
  modules.push_back(std::make_unique<DataValidationModule>());
  modules.push_back(std::make_unique<FeatureExtractionModule>());
  modules.push_back(std::make_unique<ModelTrainingModule>());
  modules.push_back(std::make_unique<ModelDeploymentModule>());
  modules.push_back(std::make_unique<InferenceModule>());
  modules.push_back(std::make_unique<AccuracyEvaluationModule>());
  modules.push_back(std::make_unique<ModelTrackingModule>());
  Pipeline pipeline;
  for (size_t i = 0; i < modules.size(); ++i) {
    pipeline.Add(std::make_unique<TimedModule>(std::move(modules[i]), probe,
                                               region_start,
                                               i + 1 == modules.size()));
  }
  return pipeline;
}

uint64_t Fold(uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of one region's predictions, accuracy, and model-registry
/// partitions (run records and incidents carry wall clock and are left
/// out).
uint64_t FoldRegion(uint64_t h, DocStore* docs, const std::string& region) {
  for (const char* container :
       {kPredictionsContainer, kAccuracyContainer, kModelRegistryContainer}) {
    h = Fold(h, container);
    for (const auto& doc :
         docs->GetContainer(container)->ReadPartition(region)) {
      h = Fold(h, doc.id);
      h = Fold(h, doc.body.Dump());
    }
  }
  return h;
}

int64_t CounterValue(const std::string& name, MetricLabels labels = {}) {
  return MetricsRegistry::Global().GetCounter(name, std::move(labels))->Value();
}

Fleet GenerateRegion(const FleetSpec& spec, const std::string& name,
                     uint64_t seed) {
  RegionConfig config;
  config.name = name;
  config.num_servers = spec.servers_per_region;
  config.weeks = static_cast<int>(kFleetWeeks);
  config.seed = seed;
  if (spec.unstable) {
    // The cohort the paper applies ML models to (§5.3.3).
    config.mix.short_lived = 0.0;
    config.mix.stable = 0.0;
    config.mix.daily = 0.0;
    config.mix.weekly = 0.0;
    config.mix.no_pattern = 1.0;
  }
  return Fleet::Generate(config);
}

}  // namespace

struct FleetPhase::Iteration {
  double fleet_ms = 0.0;
  double schedule_ms = 0.0;
  uint64_t digest = 0;
  int64_t regions_failed = 0;
  std::vector<std::string> failures;
  int64_t backups = 0;
  int64_t forecast_failed = 0;
  int64_t moved = 0;
  std::vector<std::string> chain;  ///< module names, first region
  std::vector<PipelineRunReport> reports;
  std::vector<Span> spans;
  int64_t batch_groups = 0;
  std::map<std::string, double> counts;
  int64_t long_lived = 0;
  int64_t window_correct = 0;
  int64_t predictable = 0;
};

FleetPhase::FleetPhase(const FleetSpec& spec, uint64_t seed,
                       std::string lake_dir, int jobs, SpanLog* spans)
    : spec_(spec), seed_(seed), lake_dir_(std::move(lake_dir)), jobs_(jobs),
      spans_(spans) {}

FleetPhase::~FleetPhase() = default;

int64_t FleetPhase::servers() const {
  int64_t n = 0;
  for (const Fleet& f : fleets_) n += f.size();
  return n;
}

void FleetPhase::Setup(SetupTimes* times) {
  fleets_.clear();
  fleet_jobs_.clear();
  due_.clear();
  std::filesystem::remove_all(lake_dir_);
  lake_.emplace(std::move(LakeStore::Open(lake_dir_)).ValueOrDie());

  int64_t t0 = NowNs();
  for (int r = 0; r < spec_.regions; ++r) {
    const std::string region = "region-" + std::to_string(r);
    fleets_.push_back(GenerateRegion(spec_, region,
                                     seed_ * 1000 + static_cast<uint64_t>(r)));
    fleet_jobs_.push_back({region, kPipelineWeek});
    std::array<std::vector<DueServer>, 7> days;
    for (int64_t dow = 0; dow < 7; ++dow) {
      days[static_cast<size_t>(dow)] =
          DueServersForDay(fleets_.back(), (kPipelineWeek + 1) * 7 + dow);
    }
    due_.push_back(std::move(days));
  }
  times->generate_ms += static_cast<double>(NowNs() - t0) / 1e6;

  t0 = NowNs();
  for (size_t r = 0; r < fleets_.size(); ++r) {
    const std::string key =
        LakeStore::TelemetryKey(fleet_jobs_[r].region, kPipelineWeek);
    lake_->PutStreamed(key, [&](std::ostream& out) {
          return ExtractWeekBlockTo(
              fleets_[r], kPipelineWeek, [&](std::string_view bytes) {
                out.write(bytes.data(),
                          static_cast<std::streamsize>(bytes.size()));
                return out ? Status::OK()
                           : Status::IOError("staging write failed");
              });
        })
        .Abort();
    // Pre-warm: fault every page of the blob into the page cache.
    BlobRef blob = std::move(lake_->GetBlob(key)).ValueOrDie();
    for (size_t i = 0; i < blob.size(); i += 4096) {
      prewarm_sum_ += static_cast<unsigned char>(blob.data()[i]);
    }
  }
  times->stage_ms += static_cast<double>(NowNs() - t0) / 1e6;
}

FleetPhase::Iteration FleetPhase::RunOnce(int jobs, bool wrapped) {
  Iteration it;
  DocStore docs;
  ChainProbe probe;
  probe.spans = spans_;
  FleetOptions options;
  options.jobs = jobs;
  FleetRunner::PipelineFactory factory = &Pipeline::Standard;
  if (wrapped) factory = [&probe] { return WrappedStandard(&probe); };
  FleetRunner runner(&*lake_, &docs, options, factory);
  PipelineContext config;
  config.model_name = spec_.model;

  MetricsRegistry::Global().Reset();
  const int64_t t0 = NowNs();
  probe.fleet_start_ns = t0;
  FleetRunResult result = runner.Run(fleet_jobs_, config);
  const int64_t t1 = NowNs();

  std::vector<std::vector<ScheduledBackup>> plans;
  for (size_t r = 0; r < fleet_jobs_.size(); ++r) {
    ServiceFabricProperties properties;
    BackupScheduler scheduler(&docs, &properties);
    for (int64_t dow = 0; dow < 7; ++dow) {
      const int64_t s = NowNs();
      plans.push_back(scheduler.ScheduleDay(fleet_jobs_[r].region,
                                            (kPipelineWeek + 1) * 7 + dow,
                                            due_[r][static_cast<size_t>(dow)]));
      if (wrapped) spans_->Add("scheduling.day", s, NowNs());
    }
  }
  const int64_t t2 = NowNs();
  it.fleet_ms = static_cast<double>(t1 - t0) / 1e6;
  it.schedule_ms = static_cast<double>(t2 - t1) / 1e6;

  // Everything below is outside the timed region.
  it.counts["store.lake.get_blob"] = static_cast<double>(
      CounterValue("seagull.lake.ops", {{"op", "get_blob"}}));
  it.counts["store.lake.cache_hit"] = static_cast<double>(
      CounterValue("seagull.lake.cache_events", {{"event", "hit"}}));
  it.counts["pipeline.ingest_bytes"] = static_cast<double>(CounterValue(
      "seagull.pipeline.ingest_bytes", {{"format", "binary"}}));
  it.counts["store.doc.upsert"] = static_cast<double>(
      CounterValue("seagull.doc.ops", {{"op", "upsert"}}));
  it.counts["store.doc.read_partition"] = static_cast<double>(
      CounterValue("seagull.doc.ops", {{"op", "read_partition"}}));
  it.counts["pool.stolen"] =
      static_cast<double>(CounterValue("seagull.pool.stolen"));
  it.counts["pool.queue_peak"] =
      MetricsRegistry::Global().GetGauge("seagull.pool.queue_peak")->Value();
  it.counts["forecast.models_trained"] = static_cast<double>(CounterValue(
      "seagull.forecast.models_trained", {{"model", spec_.model}}));
  it.batch_groups = probe.batch_groups.load();
  if (wrapped) it.spans = spans_->Take();

  uint64_t h = 1469598103934665603ULL;
  for (const auto& run : result.runs) {
    it.reports.push_back(run.report);
    if (!run.report.success) {
      ++it.regions_failed;
      it.failures.push_back(run.report.region + ": " + run.report.failure);
    }
  }
  if (!result.runs.empty()) {
    for (const auto& t : result.runs.front().report.timings) {
      it.chain.push_back(t.module);
    }
  }
  for (const FleetJob& job : fleet_jobs_) h = FoldRegion(h, &docs, job.region);
  for (const auto& plan : plans) {
    for (const ScheduledBackup& b : plan) {
      ++it.backups;
      if (b.decision == ScheduleDecision::kDefaultForecastFailed) {
        ++it.forecast_failed;
      }
      if (b.moved()) ++it.moved;
      h = Fold(h, b.server_id);
      h = Fold(h, std::to_string(b.day_index) + ':' +
                      std::to_string(b.window_start) + ':' +
                      ScheduleDecisionName(b.decision));
    }
  }
  it.digest = h;
  const std::string week_prefix =
      StringPrintf("w%04lld:", static_cast<long long>(kPipelineWeek + 1));
  for (const FleetJob& job : fleet_jobs_) {
    for (const auto& doc :
         docs.GetContainer(kAccuracyContainer)->ReadPartition(job.region)) {
      if (doc.id.rfind(week_prefix, 0) != 0) continue;
      if (!doc.body["long_lived"].AsBool()) continue;
      ++it.long_lived;
      if (doc.body["last_window_correct"].AsBool()) ++it.window_correct;
      if (doc.body["predictable"].AsBool()) ++it.predictable;
    }
  }
  return it;
}

void FleetPhase::RunReference(Report* report) {
  // Reference: jobs=1 through the library's own chain, never wrapped.
  reference_ = std::make_unique<Iteration>(RunOnce(1, /*wrapped=*/false));
  const Iteration& ref = *reference_;
  report->attempted += static_cast<int64_t>(fleet_jobs_.size()) + ref.backups;
  report->failed += ref.regions_failed + ref.forecast_failed;
  for (const auto& f : ref.failures) {
    report->Fail("reference region failed: " + f);
  }
  if (ref.chain != ModuleNames()) {
    report->Fail("Pipeline::Standard() chain differs from the chain the "
                 "benchmark wraps");
  }
}

void FleetPhase::RunIterations(double seconds, Report* report) {
  const Iteration& ref = *reference_;
  const int64_t begin = NowNs();
  do {
    runs_.push_back(RunOnce(jobs_, spans_->enabled()));
    const Iteration& it = runs_.back();
    report->attempted += static_cast<int64_t>(fleet_jobs_.size()) + it.backups;
    report->failed += it.regions_failed + it.forecast_failed;
    for (const auto& f : it.failures) report->Fail("region failed: " + f);
    if (it.digest != ref.digest) {
      report->Fail("fleet outputs at jobs=" + std::to_string(jobs_) +
                   " differ from the jobs=1 reference");
    }
    if (spans_->enabled() && it.chain != ref.chain) {
      report->Fail("wrapped chain reports other modules than "
                   "Pipeline::Standard()");
    }
  } while (static_cast<double>(NowNs() - begin) / 1e9 < seconds);
}

void FleetPhase::Finish(Report* report) {
  const Iteration& ref = *reference_;
  const double servers = static_cast<double>(this->servers());
  std::vector<double> per_s, fleet_ms, sched_ms;
  for (const Iteration& it : runs_) {
    per_s.push_back(servers / ((it.fleet_ms + it.schedule_ms) / 1e3));
    fleet_ms.push_back(it.fleet_ms);
    sched_ms.push_back(it.schedule_ms);
  }
  report->E2e("fleet_servers_per_s", Median(per_s), "1/s");
  const double long_lived =
      static_cast<double>(std::max<int64_t>(1, ref.long_lived));
  report->E2e("ll_correct_frac",
              static_cast<double>(ref.window_correct) / long_lived, "ratio");
  report->E2e("predictable_frac",
              static_cast<double>(ref.predictable) / long_lived, "ratio");

  const Iteration& last = runs_.back();
  for (const auto& [name, value] : last.counts) {
    report->Layer(name, value, "count");
  }
  report->Layer("training.batch_groups", static_cast<double>(last.batch_groups),
                "count");
  report->Layer("scheduling.moved", static_cast<double>(last.moved), "count");
  report->Layer("fleet.wall.ms", Median(fleet_ms), "ms");
  report->Layer("scheduling.wall.ms", Median(sched_ms), "ms");
  report->Layer("fleet.scaling", ref.fleet_ms / Median(fleet_ms), "x");
  if (!spans_->enabled()) return;

  // Per-layer split from the wrapped iterations' spans.
  std::map<std::string, std::vector<double>> module_ms;
  std::vector<double> queue_ms, coverage, day_ms;
  for (const Iteration& it : runs_) {
    double modules = 0.0;
    for (const std::string& m : ModuleNames()) {
      const double ms = SumMs(it.spans, "module." + m);
      module_ms[m].push_back(ms);
      modules += ms;
    }
    queue_ms.push_back(Mean(DurationsMs(it.spans, "region.queue")));
    coverage.push_back(modules / std::max(1e-9, SumMs(it.spans, "region.run")));
    day_ms.push_back(Mean(DurationsMs(it.spans, "scheduling.day")));
  }
  for (const std::string& m : ModuleNames()) {
    report->Layer("pipeline." + m + ".ms", Median(module_ms[m]), "ms");
  }
  auto ref_module_ms = [&](const std::string& module) {
    double sum = 0.0;
    for (const auto& r : ref.reports) sum += r.MillisOf(module);
    return sum;
  };
  report->Layer("pipeline.ingestion.inflation",
                Median(module_ms["ingestion"]) /
                    std::max(1e-9, ref_module_ms("ingestion")),
                "x");
  report->Layer("pipeline.features.inflation",
                Median(module_ms["features"]) /
                    std::max(1e-9, ref_module_ms("features")),
                "x");
  report->Layer("fleet.region_queue_ms", Median(queue_ms), "ms");
  report->Layer("fleet.module_coverage", Median(coverage), "ratio");
  report->Layer("scheduling.day.ms", Median(day_ms), "ms");
}

}  // namespace perfbench
