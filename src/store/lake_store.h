/// \file lake_store.h
/// \brief File-backed blob store — the Azure Data Lake Store analog.
///
/// Load Extraction writes per-region, per-week CSV files into ADLS and
/// the pipeline's ingestion module reads them back (§2.2). `LakeStore`
/// provides that contract over a local directory tree with simple
/// hierarchical keys like `telemetry/region-m/week-0003.csv`.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/blob_ref.h"
#include "common/result.h"

namespace seagull {

class BlobCache;

/// \brief Hierarchical blob storage rooted at a local directory.
///
/// `Put`, `GetBlob`, and `List` are instrumented with fault-injection
/// points (`lake.put`, `lake.get`, `lake.list` — see common/fault.h)
/// so chaos tests and the CLI's `--fault-rate` can exercise transient
/// blob failures deterministically.
///
/// Writes are atomic: `Put`/`PutStreamed` stage into a hidden tmp file
/// next to the target and `rename(2)` over it, so readers — including
/// live `mmap` mappings handed out by `GetBlob` — always see either the
/// old complete blob or the new one, never a torn or truncated file.
class LakeStore {
 public:
  /// Creates (if needed) and opens a store rooted at `root_dir`.
  static Result<LakeStore> Open(const std::string& root_dir);

  /// Opens a store in a fresh unique temporary directory.
  static Result<LakeStore> OpenTemporary(const std::string& name_hint);

  const std::string& root() const { return root_; }

  /// Writes a blob atomically (tmp + rename), creating intermediate
  /// directories.
  Status Put(const std::string& key, const std::string& content) const;

  /// Writes a blob atomically by streaming through `writer`, which
  /// appends the content to the provided stream. The blob becomes
  /// visible (and replaces any previous one) only after `writer`
  /// returns OK and the stream flushed cleanly; on any failure the tmp
  /// file is discarded and the previous blob is untouched. This is the
  /// sink for `SeriesBlockWriter`-style incremental encoders: a
  /// region's blob is produced without ever holding it in memory.
  Status PutStreamed(const std::string& key,
                     const std::function<Status(std::ostream&)>& writer) const;

  /// Reads a blob as a shared immutable `BlobRef` — the store's one
  /// read path, for telemetry, schemas and `transcode` alike. The ref
  /// aliases a read-only page-cache-backed mapping
  /// (store/mmap_blob.h): zero heap copies, bytes faulted on first
  /// touch, reclaimable by the kernel. With the cache enabled
  /// (`ConfigureCache`), repeat reads of an unchanged file return the
  /// same ref without touching the filesystem beyond a `stat`; parallel
  /// readers share one mapping. Fault injection fires on the miss (real
  /// read) path only — a cache hit never re-reads.
  Result<BlobRef> GetBlob(const std::string& key) const;

  /// Enables an LRU blob cache of `capacity_bytes` serving `GetBlob`
  /// (0 disables, the default). Copies of this store made after the
  /// call share the cache. Entries are keyed on
  /// key + file (size, mtime, inode, ctime), so external writes —
  /// including rename-replaces and same-size in-place rewrites — are
  /// detected; writes through this store invalidate eagerly.
  void ConfigureCache(int64_t capacity_bytes);

  /// The cache, if one is configured (test/bench introspection).
  const std::shared_ptr<BlobCache>& cache() const { return cache_; }

  bool Exists(const std::string& key) const;

  Status Delete(const std::string& key) const;

  /// Lists keys under a prefix (recursive), sorted. In-flight atomic
  /// write staging files are never listed.
  Result<std::vector<std::string>> List(const std::string& prefix) const;

  /// Size of a blob in bytes.
  Result<int64_t> SizeOf(const std::string& key) const;

  /// Canonical key of one region-week telemetry extraction.
  static std::string TelemetryKey(const std::string& region,
                                  int64_t week_index);

 private:
  explicit LakeStore(std::string root) : root_(std::move(root)) {}

  Result<std::string> ResolvePath(const std::string& key) const;
  Status WriteAtomic(const std::string& key,
                     const std::function<Status(std::ostream&)>& writer) const;

  std::string root_;
  std::shared_ptr<BlobCache> cache_;  ///< null = caching disabled
};

}  // namespace seagull
