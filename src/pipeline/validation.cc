#include "pipeline/validation.h"

#include <algorithm>
#include <unordered_map>

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
  // Binary ingestion (SeriesBlock) delivers pre-grouped servers with no
  // flat-records intermediate; the rules below have a grouped
  // equivalent of every row rule so both paths validate identically.
  const bool grouped = ctx->records.empty() && !ctx->servers.empty();
  if (ctx->records.empty() && !grouped) {
    return Status::FailedPrecondition("validation before ingestion");
  }

  // --- schema handling: deduce on first run, enforce afterwards ---
  SchemaProperties observed;
  observed.columns.assign(kTelemetryColumns, kTelemetryColumns + 5);
  if (grouped) {
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
  } else {
    observed.cpu_min = ctx->records.front().avg_cpu;
    observed.cpu_max = ctx->records.front().avg_cpu;
    for (const auto& r : ctx->records) {
      observed.cpu_min = std::min(observed.cpu_min, r.avg_cpu);
      observed.cpu_max = std::max(observed.cpu_max, r.avg_cpu);
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
  if (grouped) return RunGrouped(ctx);
  int64_t dropped_bounds = 0, dropped_grid = 0, duplicates = 0,
          dropped_window = 0;
  // Dedup state: per server, the output index of each timestamp. Rows
  // arrive grouped by server in practice, so the per-server map is
  // looked up once per server run, not once per row.
  std::unordered_map<std::string, std::unordered_map<MinuteStamp, size_t>>
      seen;
  std::unordered_map<MinuteStamp, size_t>* current = nullptr;
  const std::string* current_id = nullptr;
  std::vector<TelemetryRecord> clean;
  clean.reserve(ctx->records.size());
  for (const auto& r : ctx->records) {
    if (r.avg_cpu < 0.0 || r.avg_cpu > 100.0) {
      ++dropped_bounds;
      continue;
    }
    if (r.timestamp % kServerIntervalMinutes != 0) {
      ++dropped_grid;
      continue;
    }
    if (r.default_backup_end <= r.default_backup_start ||
        r.default_backup_end - r.default_backup_start > kMinutesPerDay) {
      ++dropped_window;
      continue;
    }
    if (current_id == nullptr || *current_id != r.server_id) {
      auto [it, inserted] = seen.try_emplace(r.server_id);
      if (inserted) {
        it->second.reserve(4096);
      }
      current = &it->second;
      current_id = &it->first;
    }
    auto [slot, inserted] = current->try_emplace(r.timestamp, clean.size());
    if (!inserted) {
      // Last write wins, as in the production de-duplication rule.
      clean[slot->second] = r;
      ++duplicates;
      continue;
    }
    clean.push_back(r);
  }

  ctx->stats["validation.dropped_bounds"] = static_cast<double>(dropped_bounds);
  ctx->stats["validation.dropped_grid"] = static_cast<double>(dropped_grid);
  ctx->stats["validation.dropped_window"] = static_cast<double>(dropped_window);
  ctx->stats["validation.duplicates"] = static_cast<double>(duplicates);
  int64_t total_dropped = dropped_bounds + dropped_grid + dropped_window;
  if (total_dropped > 0) {
    ctx->AddIncident(IncidentSeverity::kWarning, name(),
                     StringPrintf("dropped %lld invalid rows",
                                  static_cast<long long>(total_dropped)));
  }
  if (clean.empty()) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "all rows failed validation");
    return Status::DataLoss("all rows failed validation");
  }
  // Reject the file wholesale when the invalid fraction is implausible.
  double invalid_fraction = static_cast<double>(total_dropped) /
                            static_cast<double>(ctx->records.size());
  if (invalid_fraction > 0.5) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "more than half of the rows are invalid");
    return Status::DataLoss("invalid input data for region " + ctx->region);
  }

  SEAGULL_ASSIGN_OR_RETURN(ctx->servers, GroupByServer(clean));
  ctx->records = std::move(clean);
  ctx->stats["validation.servers"] = static_cast<double>(ctx->servers.size());
  return Status::OK();
}

Status DataValidationModule::RunGrouped(PipelineContext* ctx) {
  // The grouped mirror of the flat row rules. Each present sample is
  // one "row". Off-grid rows cannot exist here (the block decoder
  // rejects them) and duplicate rows, which the SGB1 writer keeps, were
  // collapsed by `StreamSeriesBlockServers` at decode (last write
  // wins), so those two counters are structurally zero.
  int64_t total_rows = 0;
  for (const auto& st : ctx->servers) total_rows += st.load.CountPresent();

  int64_t dropped_bounds = 0, dropped_window = 0;
  std::vector<ServerTelemetry> kept;
  kept.reserve(ctx->servers.size());
  for (auto& st : ctx->servers) {
    // Out-of-bounds samples become gaps, exactly as dropped CSV rows do.
    int64_t first = -1, last = -1;
    for (int64_t i = 0; i < st.load.size(); ++i) {
      if (st.load.MissingAt(i)) continue;
      const double v = st.load.ValueAt(i);
      if (v < 0.0 || v > 100.0) {
        st.load.SetValue(i, kMissingValue);
        ++dropped_bounds;
        continue;
      }
      if (first < 0) first = i;
      last = i;
    }
    if (first < 0) continue;  // every sample invalid: server vanishes
    const int64_t in_bounds = st.load.CountPresent();
    if (st.default_backup_end <= st.default_backup_start ||
        st.default_backup_end - st.default_backup_start > kMinutesPerDay) {
      // A broken backup window taints every row of the server, as each
      // flat row carries the same window fields.
      dropped_window += in_bounds;
      continue;
    }
    // GroupByServer derives the series extent from surviving rows, so
    // re-trim when an edge sample was invalidated.
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
