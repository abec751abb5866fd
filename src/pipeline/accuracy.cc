#include "pipeline/accuracy.h"

#include "common/strings.h"
#include "metrics/predictable.h"

namespace seagull {

ServerAccuracy EvaluateServerAccuracy(const ModelEndpoint& endpoint,
                                      const ServerTelemetry& telemetry,
                                      const ServerFeatures& features,
                                      int64_t target_week,
                                      const AccuracyConfig& accuracy,
                                      const FleetConfig& fleet,
                                      bool evaluate_all_days) {
  ServerAccuracy out;
  out.server_id = telemetry.server_id;
  out.long_lived = features.long_lived;

  DayForecaster forecaster =
      [&](int64_t day_index) -> Result<LoadSeries> {
    MinuteStamp day_start = day_index * kMinutesPerDay;
    // Condition only on telemetry strictly before the forecast day.
    LoadSeries recent = telemetry.load.Slice(telemetry.load.start(),
                                             day_start);
    return endpoint.Predict(telemetry.server_id, recent, day_start,
                            kMinutesPerDay);
  };

  PredictabilityResult pred = EvaluatePredictability(
      forecaster, telemetry.load, features.first_seen, features.last_seen,
      target_week, features.backup_day, features.backup_duration_minutes,
      accuracy, fleet);
  out.predictable = pred.predictable;
  out.weeks_evaluated = static_cast<int64_t>(pred.evidence.size());
  if (!pred.evidence.empty()) {
    const WeeklyEvidence& last = pred.evidence.back();
    out.last_window_correct = last.window_correct;
    out.last_load_accurate = last.load_accurate;
  }

  if (evaluate_all_days) {
    // Fig. 12(b) heavy mode: additionally evaluate every day of the most
    // recent week, looking for a better backup weekday.
    int64_t week = target_week - 1;
    for (int64_t dow = 0; dow < 7; ++dow) {
      int64_t day = week * 7 + dow;
      auto predicted = forecaster(day);
      if (!predicted.ok()) continue;
      (void)EvaluateLowLoad(*predicted, telemetry.load, day,
                            features.backup_duration_minutes, accuracy);
    }
  }
  return out;
}

Status AccuracyEvaluationModule::Run(PipelineContext* ctx) {
  if (ctx->docs == nullptr) {
    return Status::FailedPrecondition("no document store configured");
  }
  if (ctx->features.size() != ctx->servers.size()) {
    return Status::FailedPrecondition("accuracy evaluation before features");
  }
  SEAGULL_ASSIGN_OR_RETURN(ModelEndpoint endpoint,
                           LoadActiveEndpoint(ctx->docs, ctx->region));

  const int64_t target_week = ctx->week + 1;
  const int64_t n = static_cast<int64_t>(ctx->servers.size());
  ctx->accuracy_records.assign(ctx->servers.size(), ServerAccuracy{});

  auto work = [&](int64_t i) {
    ctx->accuracy_records[static_cast<size_t>(i)] = EvaluateServerAccuracy(
        endpoint, ctx->servers[static_cast<size_t>(i)],
        ctx->features[static_cast<size_t>(i)], target_week, ctx->accuracy,
        ctx->fleet, options_.evaluate_all_days);
  };
  ParallelFor(ctx->pool, n, work);

  // Persist per-server accuracy documents for the online scheduler.
  Container* container = ctx->docs->GetContainer(kAccuracyContainer);
  int64_t predictable = 0, long_lived = 0;
  for (const auto& rec : ctx->accuracy_records) {
    if (rec.long_lived) ++long_lived;
    if (rec.predictable) ++predictable;
    Document doc;
    doc.partition_key = ctx->region;
    doc.id = StringPrintf("w%04lld:%s", static_cast<long long>(target_week),
                          rec.server_id.c_str());
    doc.body = Json::MakeObject();
    doc.body["server_id"] = rec.server_id;
    doc.body["week"] = target_week;
    doc.body["long_lived"] = rec.long_lived;
    doc.body["predictable"] = rec.predictable;
    doc.body["last_window_correct"] = rec.last_window_correct;
    doc.body["last_load_accurate"] = rec.last_load_accurate;
    SEAGULL_RETURN_NOT_OK(container->Upsert(std::move(doc)));
  }
  ctx->stats["accuracy.long_lived"] = static_cast<double>(long_lived);
  ctx->stats["accuracy.predictable"] = static_cast<double>(predictable);
  if (long_lived > 0) {
    ctx->stats["accuracy.predictable_fraction"] =
        static_cast<double>(predictable) / static_cast<double>(long_lived);
  }
  return Status::OK();
}

}  // namespace seagull
