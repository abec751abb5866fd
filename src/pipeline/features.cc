#include "pipeline/features.h"

namespace seagull {

namespace {

/// First/last present sample stamps; the observable lifespan proxy.
void ObservedSpan(const LoadSeries& load, MinuteStamp* first,
                  MinuteStamp* last_exclusive) {
  *first = load.start();
  *last_exclusive = load.start();
  bool any = false;
  for (int64_t i = 0; i < load.size(); ++i) {
    if (load.MissingAt(i)) continue;
    if (!any) *first = load.TimeAt(i);
    *last_exclusive = load.TimeAt(i) + load.interval_minutes();
    any = true;
  }
}

}  // namespace

ServerFeatures ExtractFeatures(const ServerTelemetry& telemetry,
                               MinuteStamp obs_from, MinuteStamp obs_to,
                               const AccuracyConfig& accuracy,
                               const FleetConfig& fleet) {
  ServerFeatures f;
  f.server_id = telemetry.server_id;
  ObservedSpan(telemetry.load, &f.first_seen, &f.last_seen);

  // Lifespan classification (Definition 3). A server observed from the
  // very start of the window may predate it, but the pipeline can only
  // reason about what it has seen — same as production.
  f.long_lived =
      f.last_seen - f.first_seen >= fleet.long_lived_weeks * kMinutesPerWeek;

  f.classification =
      ClassifyServer(telemetry.load, f.first_seen, f.last_seen, obs_from,
                     obs_to, accuracy, fleet);
  f.summary = Summarize(telemetry.load);
  f.default_backup_start = telemetry.default_backup_start;
  f.default_backup_end = telemetry.default_backup_end;
  f.backup_duration_minutes = telemetry.backup_duration_minutes();
  f.backup_day = DayOfWeekOf(telemetry.default_backup_start);
  return f;
}

Status FeatureExtractionModule::Run(PipelineContext* ctx) {
  if (ctx->servers.empty()) {
    return Status::FailedPrecondition("feature extraction before validation");
  }
  MinuteStamp obs_to = (ctx->week + 1) * kMinutesPerWeek;
  MinuteStamp obs_from = obs_to - 4 * kMinutesPerWeek;
  if (obs_from < 0) obs_from = 0;

  ctx->features.assign(ctx->servers.size(), ServerFeatures{});
  auto work = [&](int64_t i) {
    ctx->features[static_cast<size_t>(i)] =
        ExtractFeatures(ctx->servers[static_cast<size_t>(i)], obs_from,
                        obs_to, ctx->accuracy, ctx->fleet);
  };
  ParallelFor(ctx->pool, static_cast<int64_t>(ctx->servers.size()), work);

  ClassCounts counts;
  for (const auto& f : ctx->features) {
    counts.Add(f.classification.server_class);
  }
  ctx->stats["features.short_lived"] = static_cast<double>(counts.short_lived);
  ctx->stats["features.stable"] = static_cast<double>(counts.stable);
  ctx->stats["features.daily"] = static_cast<double>(counts.daily);
  ctx->stats["features.weekly"] = static_cast<double>(counts.weekly);
  ctx->stats["features.no_pattern"] = static_cast<double>(counts.no_pattern);
  return Status::OK();
}

}  // namespace seagull
