#include "forecast/batch.h"

#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "common/obs/clock.h"
#include "forecast/additive.h"
#include "forecast/linalg.h"
#include "parallel/thread_pool.h"
#include "timeseries/resample.h"

namespace seagull {

namespace {

/// Series on one telemetry grid share every value-independent fit
/// structure. `InterpolateMissing` preserves the grid, so the raw
/// slice's shape is the grouping key.
using ShapeKey = std::tuple<MinuteStamp, MinuteStamp, int64_t, int64_t>;

ShapeKey KeyOf(const LoadSeries& s) {
  return {s.start(), s.end(), s.interval_minutes(), s.size()};
}

/// Serializes a fitted model into `out`, finalizing its status.
void FinishItem(const ForecastModel& model, Status fit,
                BatchTrainResult* out) {
  if (!fit.ok()) {
    out->status = std::move(fit);
    return;
  }
  auto doc = model.Serialize();
  if (!doc.ok()) {
    out->status = doc.status();
    return;
  }
  out->doc = std::move(doc).ValueUnsafe();
}

/// Fallback: the plain per-server path for families without a batched
/// optimizer core.
void GenericFit(const std::string& name, const LoadSeries& train,
                BatchTrainResult* out) {
  auto model = ModelFactory::Global().Create(name);
  if (!model.ok()) {
    out->status = model.status();
    return;
  }
  const int64_t t0 = ObsClock::NowMicros();
  Status fit = (*model)->Fit(train);
  out->fit_micros = static_cast<double>(ObsClock::NowMicros() - t0);
  FinishItem(**model, std::move(fit), out);
}

}  // namespace

/// Additive group: one design matrix and its Gram serve every server
/// on the grid. Both live on the heap for the duration of the group —
/// pool workers have their own thread-local scratch arenas, so
/// group-shared state cannot live there.
void BatchTrainer::FitAdditiveGroup(const std::string& name,
                                    const std::vector<BatchTrainItem>& items,
                                    const std::vector<int64_t>& members,
                                    ThreadPool* pool,
                                    std::vector<BatchTrainResult>* results) {
  auto builder_or = ModelFactory::Global().Create(name);
  auto* builder =
      builder_or.ok() ? dynamic_cast<AdditiveForecast*>(builder_or->get())
                      : nullptr;
  if (builder == nullptr) {
    ParallelFor(pool, static_cast<int64_t>(members.size()), [&](int64_t k) {
      const int64_t i = members[static_cast<size_t>(k)];
      GenericFit(name, *items[static_cast<size_t>(i)].train,
                 &(*results)[static_cast<size_t>(i)]);
    });
    return;
  }
  // Any member anchors the grid: the design depends only on the time
  // axis and the model options, both identical across the group. The
  // rows come out bit-identical to what each per-server fit would have
  // built, which is what makes the batched results byte-equal.
  const LoadSeries anchor =
      InterpolateMissing(*items[static_cast<size_t>(members[0])].train);
  builder->SetTrainRange(anchor);
  const int64_t n = anchor.size();
  const int64_t p = builder->NumFeatures();
  Matrix design(n, p);
  for (int64_t i = 0; i < n; ++i) {
    builder->FeaturesAt(anchor.TimeAt(i), design.Row(i));
  }
  const Matrix gram = AtA(design);

  ParallelFor(pool, static_cast<int64_t>(members.size()), [&](int64_t k) {
    const int64_t i = members[static_cast<size_t>(k)];
    BatchTrainResult& out = (*results)[static_cast<size_t>(i)];
    const LoadSeries& train = *items[static_cast<size_t>(i)].train;
    auto model_or = ModelFactory::Global().Create(name);
    auto* model = model_or.ok()
                      ? dynamic_cast<AdditiveForecast*>(model_or->get())
                      : nullptr;
    if (model == nullptr) {
      out.status = model_or.ok()
                       ? Status::Internal("additive family changed type")
                       : model_or.status();
      return;
    }
    const int64_t t0 = ObsClock::NowMicros();
    Status fit;
    if (train.CountPresent() < 8) {
      fit = Status::FailedPrecondition("additive model needs history");
    } else {
      const LoadSeries filled = InterpolateMissing(train);
      model->SetTrainRange(filled);
      fit = model->FitWithDesign(filled, design, gram);
    }
    out.fit_micros = static_cast<double>(ObsClock::NowMicros() - t0);
    FinishItem(*model, std::move(fit), &out);
  });
}

Result<std::vector<BatchTrainResult>> BatchTrainer::Fit(
    const std::string& model_name, const std::vector<BatchTrainItem>& items,
    ThreadPool* pool, BatchTrainStats* stats) {
  for (const BatchTrainItem& item : items) {
    if (item.train == nullptr) {
      return Status::Invalid("BatchTrainItem with null series");
    }
  }
  std::vector<BatchTrainResult> results(items.size());
  if (items.empty()) return results;

  SEAGULL_ASSIGN_OR_RETURN(auto probe,
                           ModelFactory::Global().Create(model_name));
  if (dynamic_cast<AdditiveForecast*>(probe.get()) == nullptr) {
    // No value-independent structure to share — plain per-item fits.
    ParallelFor(pool, static_cast<int64_t>(items.size()), [&](int64_t i) {
      GenericFit(model_name, *items[static_cast<size_t>(i)].train,
                 &results[static_cast<size_t>(i)]);
    });
    return results;
  }

  // Group in input order (first-seen key order is deterministic and
  // independent of the pool).
  std::map<ShapeKey, size_t> group_of;
  std::vector<std::vector<int64_t>> groups;
  for (size_t i = 0; i < items.size(); ++i) {
    const ShapeKey key = KeyOf(*items[i].train);
    auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(static_cast<int64_t>(i));
  }

  for (const std::vector<int64_t>& members : groups) {
    FitAdditiveGroup(model_name, items, members, pool, &results);
    if (stats != nullptr) {
      stats->groups += 1;
      if (members.size() > 1) {
        stats->shared_fits += static_cast<int64_t>(members.size());
      }
    }
  }
  return results;
}

}  // namespace seagull
