#include "pipeline/inference.h"

#include "common/obs/clock.h"
#include "common/obs/metrics.h"
#include "common/strings.h"
#include "metrics/ll_window.h"
#include "pipeline/deployment.h"

namespace seagull {

std::string InferenceModule::PredictionId(int64_t day_index,
                                          const std::string& server_id) {
  return StringPrintf("d%05lld:%s", static_cast<long long>(day_index),
                      server_id.c_str());
}

Status InferenceModule::Run(PipelineContext* ctx) {
  if (ctx->docs == nullptr) {
    return Status::FailedPrecondition("no document store configured");
  }
  if (ctx->features.size() != ctx->servers.size()) {
    return Status::FailedPrecondition("inference before feature extraction");
  }
  SEAGULL_ASSIGN_OR_RETURN(ModelEndpoint endpoint,
                           LoadActiveEndpoint(ctx->docs, ctx->region));

  const int64_t target_week = ctx->week + 1;
  const int64_t n = static_cast<int64_t>(ctx->servers.size());
  struct Prediction {
    std::string server_id;
    int64_t day = 0;
    WindowResult window;
  };
  std::vector<std::vector<Prediction>> per_server(
      static_cast<size_t>(n));

  // Per-model inference telemetry, one observation per (server, day)
  // forecast; shared thread-safe instruments across the fan-out.
  const MetricLabels model_labels{{"model", ctx->model_name}};
  Histogram* infer_micros = MetricsRegistry::Global().GetHistogram(
      "seagull.forecast.infer_micros", model_labels);
  Counter* forecasts = MetricsRegistry::Global().GetCounter(
      "seagull.forecast.forecasts", model_labels);
  Counter* forecast_failures = MetricsRegistry::Global().GetCounter(
      "seagull.forecast.forecast_failures", model_labels);

  auto work = [&](int64_t i) {
    const ServerTelemetry& st = ctx->servers[static_cast<size_t>(i)];
    const ServerFeatures& f = ctx->features[static_cast<size_t>(i)];
    if (!endpoint.Serves(st.server_id)) return;
    // Forecast each day of the scheduling week. Telemetry ends at the
    // pipeline boundary; autoregressive families fold forward from it.
    for (int64_t dow = 0; dow < 7; ++dow) {
      int64_t day = target_week * 7 + dow;
      const int64_t predict_start = ObsClock::NowMicros();
      auto predicted = endpoint.Predict(st.server_id, st.load,
                                        day * kMinutesPerDay,
                                        kMinutesPerDay);
      infer_micros->Observe(
          static_cast<double>(ObsClock::NowMicros() - predict_start));
      if (predicted.ok()) {
        forecasts->Increment();
      } else {
        forecast_failures->Increment();
      }
      if (!predicted.ok()) continue;
      WindowResult window =
          LowestLoadWindow(*predicted, day, f.backup_duration_minutes);
      if (!window.found) continue;
      per_server[static_cast<size_t>(i)].push_back(
          {st.server_id, day, window});
    }
  };
  ParallelFor(ctx->pool, n, work);

  Container* container = ctx->docs->GetContainer(kPredictionsContainer);
  int64_t stored = 0;
  for (const auto& predictions : per_server) {
    for (const auto& p : predictions) {
      Document doc;
      doc.partition_key = ctx->region;
      doc.id = PredictionId(p.day, p.server_id);
      doc.body = Json::MakeObject();
      doc.body["server_id"] = p.server_id;
      doc.body["day"] = p.day;
      doc.body["window_start"] = p.window.start;
      doc.body["duration_minutes"] = p.window.duration_minutes;
      doc.body["predicted_avg_load"] = p.window.average_load;
      doc.body["model_version"] = ctx->deployed_version;
      SEAGULL_RETURN_NOT_OK(container->Upsert(std::move(doc)));
      ++stored;
    }
  }
  ctx->stats["inference.predictions"] = static_cast<double>(stored);
  return Status::OK();
}

}  // namespace seagull
