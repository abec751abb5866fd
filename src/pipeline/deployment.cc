#include "pipeline/deployment.h"

#include <algorithm>

#include "common/strings.h"

namespace seagull {

namespace {

std::string VersionDocId(int64_t version) {
  return StringPrintf("v%06lld", static_cast<long long>(version));
}

}  // namespace

Result<ModelEndpoint> ModelEndpoint::FromVersionDoc(const Json& doc) {
  ModelEndpoint ep;
  SEAGULL_ASSIGN_OR_RETURN(ep.family_, doc.GetString("family"));
  SEAGULL_ASSIGN_OR_RETURN(ep.version_, doc.GetInt64("version"));
  const Json& models = doc["models"];
  if (!models.is_object()) {
    return Status::Invalid("version doc has no models object");
  }
  for (const auto& [server_id, params] : models.AsObject()) {
    SEAGULL_ASSIGN_OR_RETURN(auto model,
                             ModelFactory::Global().Restore(params));
    ep.models_.emplace(server_id, std::move(model));
  }
  if (ep.models_.empty()) {
    return Status::Invalid("version doc deploys no models");
  }
  return ep;
}

bool ModelEndpoint::Serves(const std::string& server_id) const {
  return models_.count(server_id) > 0 || models_.count("") > 0;
}

Result<LoadSeries> ModelEndpoint::Predict(const std::string& server_id,
                                          const LoadSeries& recent,
                                          MinuteStamp start,
                                          int64_t horizon_minutes) const {
  auto it = models_.find(server_id);
  if (it == models_.end()) it = models_.find("");
  if (it == models_.end()) {
    return Status::NotFound("endpoint has no model for server " + server_id);
  }
  return it->second->Forecast(recent, start, horizon_minutes);
}

Result<Json> LoadVersionDoc(DocStore* docs, const std::string& region,
                            int64_t version) {
  Container* registry = docs->GetContainer(kModelRegistryContainer);
  SEAGULL_ASSIGN_OR_RETURN(Document doc,
                           registry->Get(region, VersionDocId(version)));
  return doc.body;
}

Result<int64_t> ActiveVersion(DocStore* docs, const std::string& region) {
  Container* registry = docs->GetContainer(kModelRegistryContainer);
  SEAGULL_ASSIGN_OR_RETURN(Document doc,
                           registry->Get(region, kActiveModelDocId));
  return doc.body.GetInt64("version");
}

Status SetActiveVersion(DocStore* docs, const std::string& region,
                        int64_t version, const std::string& reason) {
  Container* registry = docs->GetContainer(kModelRegistryContainer);
  Document doc;
  doc.partition_key = region;
  doc.id = kActiveModelDocId;
  doc.body = Json::MakeObject();
  doc.body["version"] = version;
  doc.body["reason"] = reason;
  return registry->Upsert(std::move(doc));
}

Result<ModelEndpoint> LoadActiveEndpoint(DocStore* docs,
                                         const std::string& region) {
  SEAGULL_ASSIGN_OR_RETURN(int64_t version, ActiveVersion(docs, region));
  SEAGULL_ASSIGN_OR_RETURN(Json doc, LoadVersionDoc(docs, region, version));
  return ModelEndpoint::FromVersionDoc(doc);
}

Status ModelDeploymentModule::Run(PipelineContext* ctx) {
  if (ctx->docs == nullptr) {
    return Status::FailedPrecondition("no document store configured");
  }
  if (ctx->trained.empty()) {
    return Status::FailedPrecondition("deployment before training");
  }
  Container* registry = ctx->docs->GetContainer(kModelRegistryContainer);

  // Next version number: one past the highest deployed so far. A
  // version that is not an integer within +/-2^53 counts as none.
  int64_t version = 1;
  for (const auto& doc : registry->ReadPartition(ctx->region)) {
    if (doc.id == kActiveModelDocId) continue;
    version =
        std::max(version, doc.body.GetInt64("version").ValueOr(0) + 1);
  }

  Json body = Json::MakeObject();
  body["family"] = ctx->model_name;
  body["version"] = version;
  body["week"] = ctx->week;
  Json models = Json::MakeObject();
  for (const auto& [server_id, params] : ctx->trained) {
    models[server_id] = params;
  }
  body["models"] = std::move(models);

  // Health check: the package must load back into an endpoint before the
  // active pointer moves ("failed model deployment" incidents, §2.2).
  auto endpoint = ModelEndpoint::FromVersionDoc(body);
  if (!endpoint.ok()) {
    ctx->AddIncident(IncidentSeverity::kError, name(),
                     "deployment health check failed: " +
                         endpoint.status().ToString());
    return endpoint.status().WithContext("deployment health check");
  }

  Document doc;
  doc.partition_key = ctx->region;
  doc.id = VersionDocId(version);
  doc.body = std::move(body);
  SEAGULL_RETURN_NOT_OK(registry->Upsert(std::move(doc)));
  SEAGULL_RETURN_NOT_OK(SetActiveVersion(ctx->docs, ctx->region, version,
                                         StringPrintf("deployed week %lld",
                                                      static_cast<long long>(
                                                          ctx->week))));
  ctx->deployed_version = version;
  ctx->stats["deployment.version"] = static_cast<double>(version);
  ctx->stats["deployment.models"] = static_cast<double>(ctx->trained.size());
  return Status::OK();
}

}  // namespace seagull
