#include "pipeline/training.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/obs/clock.h"
#include "common/obs/metrics.h"
#include "common/strings.h"
#include "forecast/model.h"
#include "parallel/thread_pool.h"

namespace seagull {

Status ModelTrainingModule::Run(PipelineContext* ctx) {
  if (ctx->servers.empty()) {
    return Status::FailedPrecondition("training before validation");
  }
  SEAGULL_ASSIGN_OR_RETURN(auto probe,
                           ModelFactory::Global().Create(ctx->model_name));
  ctx->trained.clear();

  if (!probe->requires_training()) {
    // Heuristic family: one fleet-wide deployment entry, no fitting.
    SEAGULL_ASSIGN_OR_RETURN(Json doc, probe->Serialize());
    ctx->trained[""] = std::move(doc);
    ctx->stats["training.models"] = 1.0;
    ctx->stats["training.skipped"] = 0.0;
    return Status::OK();
  }

  const MinuteStamp train_end = (ctx->week + 1) * kMinutesPerWeek;
  const MinuteStamp train_start = train_end - kMinutesPerWeek;
  const int64_t min_history =
      ctx->fleet.min_history_days * kMinutesPerDay / kServerIntervalMinutes;

  // Per-model train telemetry. The fan-out below writes one result
  // slot per server, so the tallies and instrument observations after
  // it are plain sequential code.
  const MetricLabels model_labels{{"model", ctx->model_name}};
  Histogram* train_micros = MetricsRegistry::Global().GetHistogram(
      "seagull.forecast.train_micros", model_labels);
  Counter* models_trained = MetricsRegistry::Global().GetCounter(
      "seagull.forecast.models_trained", model_labels);
  Counter* train_failures = MetricsRegistry::Global().GetCounter(
      "seagull.forecast.train_failures", model_labels);

  // Eligibility filter; the survivors' slices stay alive in `slices`
  // for the fan-out.
  int64_t n_skipped = 0;
  std::vector<LoadSeries> slices;
  std::vector<size_t> item_server;
  slices.reserve(ctx->servers.size());
  item_server.reserve(ctx->servers.size());
  for (size_t i = 0; i < ctx->servers.size(); ++i) {
    LoadSeries train = ctx->servers[i].load.Slice(train_start, train_end);
    if (train.CountPresent() < min_history) {
      ++n_skipped;
      continue;
    }
    slices.push_back(std::move(train));
    item_server.push_back(i);
  }

  // Create → Fit → Serialize per server, visited with equal grids
  // adjacent so each thread's additive fit reuses the design it built
  // for the previous slice. Each body writes only its own slot, so the
  // order changes no result.
  struct Fitted {
    Status status;
    Json doc;
    double micros = 0.0;
  };
  std::vector<Fitted> fitted(slices.size());
  std::vector<size_t> order(slices.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::make_pair(slices[a].start(), slices[a].end()) <
           std::make_pair(slices[b].start(), slices[b].end());
  });
  ParallelFor(ctx->pool, static_cast<int64_t>(order.size()), [&](int64_t k) {
    const size_t i = order[static_cast<size_t>(k)];
    Fitted& out = fitted[i];
    auto model = ModelFactory::Global().Create(ctx->model_name);
    if (!model.ok()) {
      out.status = model.status();
      return;
    }
    const int64_t t0 = ObsClock::NowMicros();
    out.status = (*model)->Fit(slices[i]);
    out.micros = static_cast<double>(ObsClock::NowMicros() - t0);
    if (!out.status.ok()) return;
    auto doc = (*model)->Serialize();
    if (doc.ok()) {
      out.doc = std::move(doc).ValueUnsafe();
    } else {
      out.status = doc.status();
    }
  });

  int64_t n_failed = 0;
  for (size_t k = 0; k < fitted.size(); ++k) {
    Fitted& r = fitted[k];
    train_micros->Observe(r.micros);
    if (r.status.ok()) {
      models_trained->Increment();
      ctx->trained.emplace(ctx->servers[item_server[k]].server_id,
                           std::move(r.doc));
    } else {
      train_failures->Increment();
      ++n_failed;
    }
  }
  ctx->stats["training.models"] = static_cast<double>(ctx->trained.size());
  ctx->stats["training.skipped"] = static_cast<double>(n_skipped);
  ctx->stats["training.failed"] = static_cast<double>(n_failed);
  if (n_failed > 0) {
    ctx->AddIncident(IncidentSeverity::kWarning, name(),
                     StringPrintf("%lld servers failed model fitting",
                                  static_cast<long long>(n_failed)));
  }
  if (ctx->trained.empty()) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "no server produced a trained model");
    return Status::Internal("training produced no models");
  }
  return Status::OK();
}

}  // namespace seagull
