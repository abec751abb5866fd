#include "pipeline/tracking.h"

#include "common/strings.h"
#include "pipeline/deployment.h"

namespace seagull {

namespace {

/// Absolute drop in predictable fraction that triggers fallback.
constexpr double kRegressionThreshold = 0.15;

}  // namespace

Status ModelTrackingModule::Run(PipelineContext* ctx) {
  if (ctx->docs == nullptr) {
    return Status::FailedPrecondition("no document store configured");
  }
  if (ctx->deployed_version == 0) {
    return Status::FailedPrecondition("tracking before deployment");
  }
  if (ctx->accuracy_records.empty()) {
    return Status::FailedPrecondition("tracking before accuracy evaluation");
  }

  int64_t long_lived = 0, predictable = 0;
  for (const auto& rec : ctx->accuracy_records) {
    if (rec.long_lived) ++long_lived;
    if (rec.predictable) ++predictable;
  }
  const double fraction =
      long_lived > 0 ? static_cast<double>(predictable) /
                           static_cast<double>(long_lived)
                     : 0.0;

  Container* stats = ctx->docs->GetContainer(kVersionStatsContainer);

  // Previous version's recorded accuracy, if any.
  double previous_fraction = -1.0;
  int64_t previous_version = 0;
  for (const auto& doc : stats->ReadPartition(ctx->region)) {
    // Stat documents are untrusted: a version that is not an integer
    // within ±2^53 counts as absent.
    const int64_t v = doc.body.GetInt64("version").ValueOr(0);
    if (v >= ctx->deployed_version) continue;
    if (v > previous_version) {
      previous_version = v;
      previous_fraction = doc.body.GetNumber("predictable_fraction")
                              .ValueOr(-1.0);
    }
  }

  // Record this version's stats.
  Document doc;
  doc.partition_key = ctx->region;
  doc.id = StringPrintf("v%06lld",
                        static_cast<long long>(ctx->deployed_version));
  doc.body = Json::MakeObject();
  doc.body["version"] = ctx->deployed_version;
  doc.body["week"] = ctx->week;
  doc.body["family"] = ctx->model_name;
  doc.body["predictable_fraction"] = fraction;
  doc.body["long_lived"] = long_lived;
  SEAGULL_RETURN_NOT_OK(stats->Upsert(std::move(doc)));

  // Fallback decision.
  if (previous_fraction >= 0.0 &&
      previous_fraction - fraction > kRegressionThreshold) {
    SEAGULL_RETURN_NOT_OK(SetActiveVersion(
        ctx->docs, ctx->region, previous_version,
        StringPrintf("fallback: v%lld predictable fraction %.3f dropped "
                     "below v%lld's %.3f",
                     static_cast<long long>(ctx->deployed_version), fraction,
                     static_cast<long long>(previous_version),
                     previous_fraction)));
    ctx->AddIncident(
        IncidentSeverity::kError, name(),
        StringPrintf("accuracy regression: fell back to model version %lld",
                     static_cast<long long>(previous_version)));
    ctx->stats["tracking.fallback"] = 1.0;
  } else {
    ctx->stats["tracking.fallback"] = 0.0;
  }
  ctx->stats["tracking.predictable_fraction"] = fraction;
  return Status::OK();
}

}  // namespace seagull
