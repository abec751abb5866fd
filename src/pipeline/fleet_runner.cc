#include "pipeline/fleet_runner.h"

#include <chrono>
#include <memory>

#include "common/logging.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/strings.h"
#include "pipeline/incidents.h"

namespace seagull {

int64_t FleetRunResult::SuccessCount() const {
  int64_t n = 0;
  for (const auto& run : runs) {
    if (run.report.success) ++n;
  }
  return n;
}

int64_t FleetRunResult::FailureCount() const {
  return static_cast<int64_t>(runs.size()) - SuccessCount();
}

int64_t FleetRunResult::TotalRetries() const {
  int64_t n = 0;
  for (const auto& run : runs) n += run.report.retries;
  return n;
}

std::vector<Alert> FleetRunResult::AllAlerts() const {
  std::vector<Alert> alerts;
  for (const auto& run : runs) {
    alerts.insert(alerts.end(), run.alerts.begin(), run.alerts.end());
  }
  return alerts;
}

FleetRunner::FleetRunner(const LakeStore* lake, DocStore* docs,
                         FleetOptions options, PipelineFactory factory)
    : lake_(lake), docs_(docs), options_(options),
      factory_(std::move(factory)) {}

FleetRunResult FleetRunner::Run(const std::vector<FleetJob>& jobs,
                                const PipelineContext& config_template) {
  FleetRunResult result;
  result.jobs = options_.jobs < 1 ? 1 : options_.jobs;
  result.runs.resize(jobs.size());

  // One pool serves both levels: region jobs fan out here, and each
  // pipeline's per-server loops nest into the same workers via
  // `ctx.pool`. With jobs <= 1 no pool exists and every loop runs in
  // index order on this thread — the determinism reference.
  std::unique_ptr<ThreadPool> pool;
  if (result.jobs > 1) pool = std::make_unique<ThreadPool>(result.jobs);

  // The fleet span is the root of this run's trace tree; per-region
  // spans parent to it explicitly because they execute on pool workers
  // where the thread-local span cursor is empty.
  ScopedSpan fleet_span("fleet.run", "fleet");
  const int64_t fleet_span_id = fleet_span.id();
  auto& registry = MetricsRegistry::Global();
  Counter* regions_run = registry.GetCounter("seagull.fleet.regions_run");
  Counter* region_failures =
      registry.GetCounter("seagull.fleet.region_failures");
  Counter* fleet_retries = registry.GetCounter("seagull.fleet.retries");

  const auto start = std::chrono::steady_clock::now();
  auto run_job = [&](int64_t i) {
    const FleetJob& job = jobs[static_cast<size_t>(i)];
    ScopedSpan region_span("region." + job.region, "fleet", fleet_span_id);
    // Fresh pipeline + scheduler per job: modules keep per-run state and
    // must not be shared across concurrently executing regions.
    Pipeline pipeline = factory_();
    PipelineScheduler scheduler(&pipeline, lake_, docs_, options_.retry);
    PipelineContext config = config_template;
    if (pool != nullptr) config.pool = pool.get();
    PipelineScheduler::ScheduledRun& run = result.runs[static_cast<size_t>(i)];
    run = scheduler.RunIfDue(job.region, job.week, config);
    // Live fleet-health counters: workers publish through the atomic
    // registry so a dashboard thread may read mid-run without racing
    // the run loop (the chaos suite proves this under tsan).
    regions_run->Increment();
    if (!run.report.success) region_failures->Increment();
    if (run.report.retries > 0) fleet_retries->Increment(run.report.retries);
  };
  // Grain 1: a chunk is one whole region pipeline.
  ParallelFor(pool.get(), static_cast<int64_t>(jobs.size()), run_job,
              /*grain=*/1);
  // The end of the run is the fleet's phase boundary: the peak-RSS
  // gauge sampled here covers every region it held.
  SampleProcessRss();
  const auto end = std::chrono::steady_clock::now();
  result.wall_millis =
      std::chrono::duration<double, std::milli>(end - start).count();

  // Quarantine pass — sequential, in job order, so the incident docs it
  // writes are deterministic regardless of how the runs interleaved.
  Counter* quarantines = registry.GetCounter("seagull.fleet.quarantines");
  Container* incidents = docs_->GetContainer(kIncidentContainer);
  for (size_t i = 0; i < result.runs.size(); ++i) {
    auto& run = result.runs[i];
    const PipelineRunReport& report = run.report;
    if (report.success || !report.retries_exhausted) continue;
    quarantines->Increment();
    result.quarantined.push_back({report.region, report.week,
                                  report.failure});
    Document doc;
    doc.partition_key = report.region;
    doc.id = StringPrintf("w%04lld:quarantine",
                          static_cast<long long>(report.week));
    doc.body = Json::MakeObject();
    doc.body["week"] = report.week;
    doc.body["module"] = "fleet";
    doc.body["severity"] = IncidentSeverityName(IncidentSeverity::kError);
    doc.body["message"] =
        "region quarantined after exhausting retries: " + report.failure;
    RetryOutcome persisted =
        RunWithRetry(options_.retry, report.region + "/quarantine",
                     [&] { return incidents->Upsert(doc); });
    if (!persisted.status.ok()) {
      SEAGULL_LOG_ERROR("dropping quarantine incident for %s: %s",
                        report.region.c_str(),
                        persisted.status.ToString().c_str());
    }
    run.alerts.push_back({report.region, report.week, "region_quarantined",
                          "pipeline exhausted retries: " + report.failure});
  }
  return result;
}

}  // namespace seagull
