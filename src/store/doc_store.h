/// \file doc_store.h
/// \brief Partitioned JSON document store — the Cosmos DB analog.
///
/// Pipeline results (predictions, accuracy records, scheduled windows,
/// model-registry entries) are stored in Cosmos DB in production (§2.2).
/// `DocStore` reproduces the interaction pattern: named containers,
/// documents addressed by (partition key, id), upserts, point reads, and
/// filtered scans — with optional JSON-file persistence.
///
/// Mutating and point-read operations are instrumented with
/// fault-injection points (`doc.upsert`, `doc.insert`, `doc.get` — see
/// common/fault.h); snapshot/restore and the scans are deliberately
/// not, so test oracles can read ground-truth state while faults are
/// active.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace seagull {

/// \brief A stored document: addressing plus JSON body.
struct Document {
  std::string partition_key;
  std::string id;
  Json body;
};

/// \brief One named container of documents.
class Container {
 public:
  explicit Container(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Inserts or replaces the document at (partition_key, id).
  Status Upsert(Document doc);

  /// Inserts; fails with AlreadyExists if present.
  Status Insert(Document doc);

  /// Point read.
  Result<Document> Get(const std::string& partition_key,
                       const std::string& id) const;

  Status Delete(const std::string& partition_key, const std::string& id);

  /// All documents of one partition, ordered by id.
  std::vector<Document> ReadPartition(const std::string& partition_key) const;

  /// Erases every document of one partition, returning how many were
  /// dropped. This is the memory-plane release primitive: retiring a
  /// region after its shard completes frees its documents before the
  /// next shard materializes (std::map nodes are freed per-erase, so
  /// the working set shrinks immediately, not at container teardown).
  int64_t DropPartition(const std::string& partition_key);

  /// Full scan with a predicate over the JSON body.
  std::vector<Document> Query(
      const std::function<bool(const Document&)>& pred) const;

  int64_t Count() const;

 private:
  using Key = std::pair<std::string, std::string>;
  std::string name_;
  mutable std::mutex mu_;
  std::map<Key, Document> docs_;
};

/// \brief A set of named containers with JSON snapshot persistence.
class DocStore {
 public:
  DocStore() = default;
  DocStore(const DocStore&) = delete;
  DocStore& operator=(const DocStore&) = delete;

  /// Returns the container, creating it if absent.
  Container* GetContainer(const std::string& name);

  /// Names of existing containers, sorted.
  std::vector<std::string> ContainerNames() const;

  /// Drops the partition from every container (see
  /// `Container::DropPartition`), returning the total count erased.
  int64_t DropPartition(const std::string& partition_key);

  /// Serializes every container to one JSON document.
  Json Snapshot() const;

  /// Restores from a snapshot (replaces current contents).
  Status Restore(const Json& snapshot);

  /// Saves/loads the snapshot to/from a file.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Container>> containers_;
};

}  // namespace seagull
