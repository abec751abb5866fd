/// \file lake_store.h
/// \brief File-backed blob store — the Azure Data Lake Store analog.
///
/// Load Extraction writes per-region, per-week SGB1 files into ADLS and
/// the pipeline's ingestion module reads them back (§2.2). `LakeStore`
/// provides that contract over a local directory tree with simple
/// hierarchical keys like `telemetry/region-m/week-0003.sgb`.

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

  /// Opens a store in a fresh directory made by `mkdtemp(3)` under the
  /// system temp dir, so no two calls (or processes) share one. The
  /// directory tree is removed when the last copy of the handle is
  /// destroyed.
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
  /// read path, for telemetry, schemas and `transcode` alike. Every
  /// call resolves the key, fires the `lake.get` fault point and maps
  /// the file: the ref aliases a read-only page-cache-backed mapping
  /// (store/mmap_blob.h) — zero heap copies, bytes faulted on first
  /// touch, reclaimable by the kernel.
  Result<BlobRef> GetBlob(const std::string& key) const;

  bool Exists(const std::string& key) const;

  Status Delete(const std::string& key) const;

  /// Lists keys under a prefix (recursive), sorted. In-flight atomic
  /// write staging files are never listed.
  Result<std::vector<std::string>> List(const std::string& prefix) const;

  /// Size of a blob in bytes.
  Result<int64_t> SizeOf(const std::string& key) const;

  /// Canonical key of one region-week telemetry extraction, named for
  /// its SGB1 format: `telemetry/<region>/week-NNNN.sgb`.
  static std::string TelemetryKey(const std::string& region,
                                  int64_t week_index);

 private:
  explicit LakeStore(std::string root) : root_(std::move(root)) {}

  Result<std::string> ResolvePath(const std::string& key) const;
  Status WriteAtomic(const std::string& key,
                     const std::function<Status(std::ostream&)>& writer) const;

  std::string root_;
  /// Set by `OpenTemporary` only: the last copy removes the directory.
  std::shared_ptr<const void> temp_dir_;
};

}  // namespace seagull
