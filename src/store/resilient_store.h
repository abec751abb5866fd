/// \file resilient_store.h
/// \brief Retry-wrapped access to the lake and document stores.
///
/// The production pipeline never talks to ADLS/Cosmos raw: SDK-level
/// retries absorb transient faults before they become incidents (§2.2).
/// `ResilientStore` is that layer here — every operation runs under a
/// `RetryPolicy`, transient failures (as classified by
/// `IsRetryableStatus`) are retried with deterministic backoff, and the
/// number of retries spent is counted for run reports and tests.
///
/// Borrowing semantics match `PipelineContext`: the wrapper holds
/// non-owning pointers to stores that outlive it.

#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/retry.h"
#include "store/doc_store.h"
#include "store/lake_store.h"

namespace seagull {

/// \brief Applies one retry policy to lake and document operations.
class ResilientStore {
 public:
  /// Either store may be null when a caller only needs the other half.
  ResilientStore(const LakeStore* lake, DocStore* docs,
                 RetryPolicy policy = {})
      : lake_(lake), docs_(docs), policy_(policy) {}

  const RetryPolicy& policy() const { return policy_; }

  /// \name Lake operations (fail with FailedPrecondition if no lake).
  /// @{
  /// `BlobRef` read: zero-copy mmap-backed bytes, served from the
  /// lake's blob cache when configured (see `LakeStore::GetBlob`).
  Result<BlobRef> LakeGetBlob(const std::string& key) const;
  Status LakePut(const std::string& key, const std::string& content) const;
  Result<std::vector<std::string>> LakeList(const std::string& prefix) const;
  /// @}

  /// \name Document operations (fail with FailedPrecondition if no docs).
  /// @{
  Status Upsert(const std::string& container, Document doc) const;
  Result<Document> Get(const std::string& container,
                       const std::string& partition_key,
                       const std::string& id) const;
  Result<std::vector<Document>> Query(
      const std::string& container,
      const std::function<bool(const Document&)>& pred) const;
  /// @}

  /// Retries spent across every operation since construction.
  int64_t total_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  /// Runs `op` under the policy and accumulates its retry count.
  Status Retry(const std::string& op_key,
               const std::function<Status()>& op) const;

  const LakeStore* lake_;
  DocStore* docs_;
  RetryPolicy policy_;
  mutable std::atomic<int64_t> retries_{0};
};

}  // namespace seagull
