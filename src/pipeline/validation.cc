#include "pipeline/validation.h"

#include <algorithm>

#include "common/strings.h"

namespace seagull {

Json SchemaProperties::ToJson() const {
  Json doc = Json::MakeObject();
  Json cols = Json::MakeArray();
  for (const auto& c : columns) cols.Append(c);
  doc["columns"] = std::move(cols);
  doc["cpu_min"] = cpu_min;
  doc["cpu_max"] = cpu_max;
  doc["verified"] = verified;
  return doc;
}

Result<SchemaProperties> SchemaProperties::FromJson(const Json& doc) {
  SchemaProperties p;
  if (!doc["columns"].is_array()) {
    return Status::Invalid("schema doc has no columns array");
  }
  for (const auto& c : doc["columns"].AsArray()) {
    if (!c.is_string()) return Status::Invalid("non-string column name");
    p.columns.push_back(c.AsString());
  }
  SEAGULL_ASSIGN_OR_RETURN(p.cpu_min, doc.GetNumber("cpu_min"));
  SEAGULL_ASSIGN_OR_RETURN(p.cpu_max, doc.GetNumber("cpu_max"));
  SEAGULL_ASSIGN_OR_RETURN(p.verified, doc.GetBool("verified"));
  return p;
}

std::string DataValidationModule::SchemaKey(const std::string& region) {
  return "schema/" + region + ".json";
}

Status DataValidationModule::Run(PipelineContext* ctx) {
  if (ctx->servers.empty()) {
    return Status::FailedPrecondition("validation before ingestion");
  }

  // --- schema handling: deduce on first run, enforce afterwards ---
  SchemaProperties observed;
  observed.columns.assign(kTelemetryColumns, kTelemetryColumns + 5);
  bool any = false;
  for (const auto& st : ctx->servers) {
    for (double v : st.load.values()) {
      if (IsMissing(v)) continue;
      if (!any) {
        observed.cpu_min = observed.cpu_max = v;
        any = true;
      } else {
        observed.cpu_min = std::min(observed.cpu_min, v);
        observed.cpu_max = std::max(observed.cpu_max, v);
      }
    }
  }

  const std::string schema_key = SchemaKey(ctx->region);
  if (ctx->lake != nullptr && ctx->lake->Exists(schema_key)) {
    SEAGULL_ASSIGN_OR_RETURN(BlobRef blob, ctx->lake->GetBlob(schema_key));
    SEAGULL_ASSIGN_OR_RETURN(Json doc, Json::Parse(std::string(blob.view())));
    SEAGULL_ASSIGN_OR_RETURN(SchemaProperties expected,
                             SchemaProperties::FromJson(doc));
    if (expected.columns != observed.columns) {
      ctx->AddIncident(IncidentSeverity::kError, name(),
                       "schema anomaly: column set changed");
      return Status::DataLoss("schema anomaly in region " + ctx->region);
    }
    // Bound anomaly on the whole-file level: the paper's rule flags data
    // drifting far outside historically observed bounds.
    double margin = 0.25 * (expected.cpu_max - expected.cpu_min) + 5.0;
    if (observed.cpu_max > expected.cpu_max + margin ||
        observed.cpu_min < expected.cpu_min - margin) {
      ctx->AddIncident(
          IncidentSeverity::kWarning, name(),
          StringPrintf("bound anomaly: observed cpu range [%.2f, %.2f] vs "
                       "expected [%.2f, %.2f]",
                       observed.cpu_min, observed.cpu_max, expected.cpu_min,
                       expected.cpu_max));
    }
  } else if (ctx->lake != nullptr) {
    // First run for this region: persist the deduced properties. In
    // production a domain expert verifies the file before enforcement;
    // the simulator trusts its own generator.
    observed.verified = true;
    SEAGULL_RETURN_NOT_OK(
        ctx->lake->Put(schema_key, observed.ToJson().Dump()));
    ctx->AddIncident(IncidentSeverity::kInfo, name(),
                     "deduced schema for region " + ctx->region);
  }

  // --- row-level rules ---
  // Each present sample is one row. Off-grid rows cannot reach this
  // point (the SGB1 decode rejects them) and duplicate rows were
  // collapsed at decode (last write wins), so those two counters are
  // structurally zero.
  int64_t total_rows = 0, dropped_bounds = 0, dropped_window = 0;
  std::vector<ServerTelemetry> kept;
  kept.reserve(ctx->servers.size());
  for (auto& st : ctx->servers) {
    // Out-of-bounds samples become gaps.
    int64_t first = -1, last = -1, in_bounds = 0;
    for (int64_t i = 0; i < st.load.size(); ++i) {
      if (st.load.MissingAt(i)) continue;
      ++total_rows;
      const double v = st.load.ValueAt(i);
      if (v < 0.0 || v > 100.0) {
        st.load.SetValue(i, kMissingValue);
        ++dropped_bounds;
        continue;
      }
      ++in_bounds;
      if (first < 0) first = i;
      last = i;
    }
    if (first < 0) continue;  // every sample invalid: server vanishes
    if (st.default_backup_end <= st.default_backup_start ||
        st.default_backup_end - st.default_backup_start > kMinutesPerDay) {
      // A broken backup window drops the server: each of its present
      // samples counts as one dropped row.
      dropped_window += in_bounds;
      continue;
    }
    // A series spans its first to last present sample, so re-trim
    // when an edge sample was invalidated.
    if (first > 0 || last < st.load.size() - 1) {
      st.load = st.load.Slice(st.load.TimeAt(first),
                              st.load.TimeAt(last) + st.load.interval_minutes());
    }
    kept.push_back(std::move(st));
  }

  ctx->stats["validation.dropped_bounds"] = static_cast<double>(dropped_bounds);
  ctx->stats["validation.dropped_grid"] = 0.0;
  ctx->stats["validation.dropped_window"] = static_cast<double>(dropped_window);
  ctx->stats["validation.duplicates"] = 0.0;
  const int64_t total_dropped = dropped_bounds + dropped_window;
  if (total_dropped > 0) {
    ctx->AddIncident(IncidentSeverity::kWarning, name(),
                     StringPrintf("dropped %lld invalid rows",
                                  static_cast<long long>(total_dropped)));
  }
  if (kept.empty()) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "all rows failed validation");
    return Status::DataLoss("all rows failed validation");
  }
  if (total_rows > 0 && static_cast<double>(total_dropped) /
                                static_cast<double>(total_rows) >
                            0.5) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "more than half of the rows are invalid");
    return Status::DataLoss("invalid input data for region " + ctx->region);
  }

  ctx->servers = std::move(kept);
  ctx->stats["validation.servers"] = static_cast<double>(ctx->servers.size());
  return Status::OK();
}

}  // namespace seagull
