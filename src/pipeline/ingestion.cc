#include "pipeline/ingestion.h"

#include "common/obs/metrics.h"
#include "common/strings.h"
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

  int64_t rows = 0;
  int64_t resident_bytes = 0;
  const char* format = "csv";
  if (IsSeriesBlock(blob.view())) {
    // Binary fast path: stream the cursor server-by-server straight
    // into grouped per-server form — no flat-records intermediate, no
    // column scratch copies, and no heap copy of the blob either: the
    // views alias the page-cache-backed mapping GetBlob returns. The
    // cursor pins the blob's owner, so the views stay valid even if
    // the blob is replaced or deleted while this module runs.
    // Validation detects the pre-grouped input via ctx->servers.
    format = "binary";
    auto cursor = SeriesBlockCursor::Open(blob);
    if (!cursor.ok()) {
      ctx->AddIncident(IncidentSeverity::kError, name(),
                       cursor.status().ToString());
      return cursor.status();
    }
    ctx->servers.reserve(static_cast<size_t>(cursor->size()));
    Status streamed =
        StreamSeriesBlockServers(*cursor, [&](ServerTelemetry&& st) {
          resident_bytes += ApproxTelemetryBytes(st);
          ctx->servers.push_back(std::move(st));
          return Status::OK();
        });
    if (!streamed.ok()) {
      ctx->servers.clear();
      ctx->AddIncident(IncidentSeverity::kError, name(),
                       streamed.ToString());
      return streamed;
    }
    rows = cursor->info().total_samples;
  } else {
    auto records = ParseTelemetryCsv(blob.view());
    if (!records.ok()) {
      ctx->AddIncident(IncidentSeverity::kError, name(),
                       records.status().ToString());
      return records.status();
    }
    ctx->records = std::move(records).ValueUnsafe();
    rows = static_cast<int64_t>(ctx->records.size());
    resident_bytes =
        static_cast<int64_t>(ctx->records.size() * sizeof(TelemetryRecord));
  }

  ctx->stats["ingestion.rows"] = static_cast<double>(rows);
  ctx->stats["ingestion.bytes"] = static_cast<double>(blob.size());
  // Format-dependent by design (flat records vs grouped series), so the
  // cross-format determinism suite canonicalizes it like ingestion.bytes.
  ctx->stats["ingestion.resident_bytes"] = static_cast<double>(resident_bytes);
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("seagull.pipeline.ingest_rows", {{"format", format}})
      ->Increment(rows);
  reg.GetCounter("seagull.pipeline.ingest_bytes", {{"format", format}})
      ->Increment(static_cast<int64_t>(blob.size()));
  reg.GetCounter("seagull.pipeline.ingest_resident_bytes",
                 {{"format", format}})
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
