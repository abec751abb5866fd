#include "pipeline/incidents.h"

#include "common/logging.h"
#include "common/strings.h"

namespace seagull {

const char* IncidentSeverityName(IncidentSeverity severity) {
  switch (severity) {
    case IncidentSeverity::kInfo:
      return "info";
    case IncidentSeverity::kWarning:
      return "warning";
    case IncidentSeverity::kError:
      return "error";
  }
  return "unknown";
}

std::vector<Alert> IncidentManager::Process(const PipelineContext& ctx,
                                            const PipelineRunReport& report) {
  std::vector<Alert> alerts;
  Container* container = docs_->GetContainer(kIncidentContainer);

  int64_t warnings = 0;
  for (const auto& incident : ctx.incidents) {
    Document doc;
    doc.partition_key = ctx.region;
    doc.id = StringPrintf("w%04lld:%06lld",
                          static_cast<long long>(ctx.week),
                          static_cast<long long>(sequence_++));
    doc.body = Json::MakeObject();
    doc.body["week"] = ctx.week;
    doc.body["module"] = incident.module;
    doc.body["severity"] = IncidentSeverityName(incident.severity);
    doc.body["message"] = incident.message;
    RetryOutcome persisted = RunWithRetry(
        retry_, ctx.region + "/incident/" + doc.id,
        [&] { return container->Upsert(doc); });
    if (!persisted.status.ok()) {
      SEAGULL_LOG_ERROR("dropping incident %s/%s: %s", ctx.region.c_str(),
                        doc.id.c_str(),
                        persisted.status.ToString().c_str());
    }

    if (incident.severity == IncidentSeverity::kWarning) ++warnings;
    if (incident.severity == IncidentSeverity::kError) {
      alerts.push_back({ctx.region, ctx.week, "error_incident",
                        incident.module + ": " + incident.message});
    }
  }
  if (warnings > kWarningFloodThreshold) {
    alerts.push_back(
        {ctx.region, ctx.week, "warning_flood",
         StringPrintf("%lld warnings in one run",
                      static_cast<long long>(warnings))});
  }
  if (!report.success) {
    alerts.push_back(
        {ctx.region, ctx.week, "run_failed", report.failure});
  }
  return alerts;
}

std::vector<Document> IncidentManager::History(
    const std::string& region) const {
  return docs_->GetContainer(kIncidentContainer)->ReadPartition(region);
}

}  // namespace seagull
