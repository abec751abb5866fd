#include "pipeline/scheduler.h"

namespace seagull {

int64_t PipelineScheduler::LastSuccessfulWeek(
    const std::string& region) const {
  Container* runs = docs_->GetContainer(kRunsContainer);
  int64_t last = -1;
  for (const auto& doc : runs->ReadPartition(region)) {
    if (!doc.body.GetBool("success").ValueOr(false)) continue;
    // Run documents are untrusted: a week that is not an integer
    // within ±2^53 counts as absent.
    const int64_t week = doc.body.GetInt64("week").ValueOr(-1);
    if (week > last) last = week;
  }
  return last;
}

bool PipelineScheduler::IsDue(const std::string& region, int64_t week) const {
  int64_t last = LastSuccessfulWeek(region);
  return last < 0 || week > last;
}

PipelineScheduler::ScheduledRun PipelineScheduler::RunIfDue(
    const std::string& region, int64_t week,
    const PipelineContext& config_template) {
  ScheduledRun out;
  if (!IsDue(region, week)) {
    out.report.region = region;
    out.report.week = week;
    out.report.success = true;
    return out;
  }
  PipelineContext ctx;
  ctx.region = region;
  ctx.week = week;
  ctx.accuracy = config_template.accuracy;
  ctx.fleet = config_template.fleet;
  ctx.model_name = config_template.model_name;
  ctx.pool = config_template.pool;
  ctx.lake = lake_;
  ctx.docs = docs_;
  out.report = pipeline_->Run(&ctx, retry_);

  // Record-keeping must not crash the scheduler: a transient store
  // fault is retried, and a persistent one degrades to an incident
  // (the region stays due, so the next cadence catches up).
  Dashboard dashboard(docs_);
  RetryOutcome recorded = RunWithRetry(
      retry_, region + "/dashboard.record",
      [&] { return dashboard.Record(ctx, out.report); });
  if (!recorded.status.ok()) {
    ctx.AddIncident(IncidentSeverity::kError, "dashboard",
                    "failed to record run report: " +
                        recorded.status.ToString());
  }
  IncidentManager incidents(docs_, retry_);
  out.alerts = incidents.Process(ctx, out.report);
  return out;
}

}  // namespace seagull
