#include "pipeline/ingestion.h"

#include "common/obs/metrics.h"
#include "telemetry/series_block.h"

namespace seagull {

Status DataIngestionModule::Run(PipelineContext* ctx) {
  if (ctx->lake == nullptr) {
    return Status::FailedPrecondition("no lake store configured");
  }
  const std::string key = LakeStore::TelemetryKey(ctx->region, ctx->week);
  if (!ctx->lake->Exists(key)) {
    // Missing input data is the canonical §2.2 incident example.
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "missing input blob: " + key);
    return Status::NotFound("missing input blob: " + key);
  }
  SEAGULL_ASSIGN_OR_RETURN(BlobRef blob, ctx->lake->GetBlob(key));

  // Stream the cursor server-by-server straight into grouped
  // per-server form: no flat-records intermediate, no column scratch
  // copies, and no heap copy of the blob either, since the views alias
  // the page-cache-backed mapping GetBlob returns. The cursor pins the
  // blob's owner, so the views stay valid even if the blob is replaced
  // or deleted while this module runs.
  auto cursor = SeriesBlockCursor::Open(blob);
  if (!cursor.ok()) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     cursor.status().ToString());
    return cursor.status();
  }
  int64_t resident_bytes = 0;
  ctx->servers.reserve(static_cast<size_t>(cursor->size()));
  Status streamed =
      StreamSeriesBlockServers(*cursor, [&](ServerTelemetry&& st) {
        resident_bytes += ApproxTelemetryBytes(st);
        ctx->servers.push_back(std::move(st));
        return Status::OK();
      });
  if (!streamed.ok()) {
    ctx->servers.clear();
    ctx->AddIncident(IncidentSeverity::kError, name(), streamed.ToString());
    return streamed;
  }
  const int64_t rows = cursor->info().total_samples;

  ctx->stats["ingestion.rows"] = static_cast<double>(rows);
  ctx->stats["ingestion.bytes"] = static_cast<double>(blob.size());
  ctx->stats["ingestion.resident_bytes"] = static_cast<double>(resident_bytes);
  // SGB1 is the only format, but the series keep their `format=binary`
  // label: perfbench and dashboards read them by their full names.
  const MetricLabels format = {{"format", "binary"}};
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("seagull.pipeline.ingest_rows", format)->Increment(rows);
  reg.GetCounter("seagull.pipeline.ingest_bytes", format)
      ->Increment(static_cast<int64_t>(blob.size()));
  reg.GetCounter("seagull.pipeline.ingest_resident_bytes", format)
      ->Increment(resident_bytes);
  // Phase-boundary memory sample: ingestion holds a region's largest
  // transient working set, so its edge is where the peak-RSS gauge is
  // most informative.
  SampleProcessRss();
  if (rows == 0) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "input blob has no rows: " + key);
    return Status::DataLoss("input blob has no rows: " + key);
  }
  return Status::OK();
}

}  // namespace seagull
