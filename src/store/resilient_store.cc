#include "store/resilient_store.h"

#include "common/obs/metrics.h"

namespace seagull {

Status ResilientStore::Retry(const std::string& op_key,
                             const std::function<Status()>& op) const {
  RetryOutcome outcome = RunWithRetry(policy_, op_key, op);
  retries_.fetch_add(outcome.retries(), std::memory_order_relaxed);
  if (outcome.retries() > 0) {
    MetricsRegistry::Global()
        .GetCounter("seagull.store.retries")
        ->Increment(outcome.retries());
  }
  if (outcome.exhausted) {
    MetricsRegistry::Global()
        .GetCounter("seagull.store.retries_exhausted")
        ->Increment();
  }
  return outcome.status;
}

Result<BlobRef> ResilientStore::LakeGetBlob(const std::string& key) const {
  if (lake_ == nullptr) {
    return Status::FailedPrecondition("no lake store configured");
  }
  BlobRef value;
  Status st = Retry("lake.get/" + key, [&] {
    SEAGULL_ASSIGN_OR_RETURN(value, lake_->GetBlob(key));
    return Status::OK();
  });
  if (!st.ok()) return st;
  return value;
}

Status ResilientStore::LakePut(const std::string& key,
                               const std::string& content) const {
  if (lake_ == nullptr) {
    return Status::FailedPrecondition("no lake store configured");
  }
  return Retry("lake.put/" + key, [&] { return lake_->Put(key, content); });
}

Result<std::vector<std::string>> ResilientStore::LakeList(
    const std::string& prefix) const {
  if (lake_ == nullptr) {
    return Status::FailedPrecondition("no lake store configured");
  }
  std::vector<std::string> keys;
  Status st = Retry("lake.list/" + prefix, [&] {
    SEAGULL_ASSIGN_OR_RETURN(keys, lake_->List(prefix));
    return Status::OK();
  });
  if (!st.ok()) return st;
  return keys;
}

Status ResilientStore::Upsert(const std::string& container,
                              Document doc) const {
  if (docs_ == nullptr) {
    return Status::FailedPrecondition("no document store configured");
  }
  Container* c = docs_->GetContainer(container);
  const std::string op_key =
      "doc.upsert/" + container + '/' + doc.partition_key + '/' + doc.id;
  // The document is copied per attempt: `Container::Upsert` consumes it.
  return Retry(op_key, [&] { return c->Upsert(doc); });
}

Result<Document> ResilientStore::Get(const std::string& container,
                                     const std::string& partition_key,
                                     const std::string& id) const {
  if (docs_ == nullptr) {
    return Status::FailedPrecondition("no document store configured");
  }
  Container* c = docs_->GetContainer(container);
  Document doc;
  Status st = Retry("doc.get/" + container + '/' + partition_key + '/' + id,
                    [&] {
                      SEAGULL_ASSIGN_OR_RETURN(doc,
                                               c->Get(partition_key, id));
                      return Status::OK();
                    });
  if (!st.ok()) return st;
  return doc;
}

Result<std::vector<Document>> ResilientStore::Query(
    const std::string& container,
    const std::function<bool(const Document&)>& pred) const {
  if (docs_ == nullptr) {
    return Status::FailedPrecondition("no document store configured");
  }
  Container* c = docs_->GetContainer(container);
  std::vector<Document> docs;
  Status st = Retry("doc.query/" + container, [&] {
    SEAGULL_ASSIGN_OR_RETURN(docs, c->QueryChecked(pred));
    return Status::OK();
  });
  if (!st.ok()) return st;
  return docs;
}

}  // namespace seagull
