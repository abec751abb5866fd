/// \file mmap_blob.h
/// \brief Read-only `mmap(2)` mapping of a lake blob.
///
/// A heap read copies every blob into a `std::string` — at 1M servers
/// that is ~95 MB of allocation and memcpy per region-week before
/// decode even starts, and the copy lives in the process heap where it
/// counts against peak RSS even after `malloc_trim`. A mapping instead
/// aliases the kernel page cache, which is why `LakeStore::GetBlob`
/// reads every blob this way: the bytes are faulted in on first touch,
/// shared with every other mapper of the same inode, and reclaimable by
/// the kernel under pressure without the process doing anything.
///
/// Safety contract (DESIGN.md "memory-plane round 2"):
///   - `LakeStore::Put` replaces blobs via tmp + `rename(2)`, never by
///     truncating in place, so a live mapping always covers a fully
///     written immutable inode — readers can never fault on a page a
///     writer is mid-truncate on (`SIGBUS`).
///   - The mapping is `MAP_PRIVATE` + `PROT_READ`: this process never
///     writes through it. Each `GetBlob` maps the file anew, so a read
///     after a replace sees the new inode's bytes.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/blob_ref.h"
#include "common/result.h"

namespace seagull {

/// \brief Owns one read-only file mapping; unmapped on destruction.
///
/// Constructed only through `Map`, which hands back a `BlobRef` whose
/// type-erased owner is the `MmapBlob` — holders of the ref (pinned
/// cursors) keep the mapping alive, and the last one out unmaps.
class MmapBlob {
 public:
  /// Maps `path` read-only. An empty file yields a valid ref with an
  /// empty view (zero-length mappings are not representable).
  /// `key` is used for error messages only.
  static Result<BlobRef> Map(const std::string& path, const std::string& key);

  MmapBlob(const MmapBlob&) = delete;
  MmapBlob& operator=(const MmapBlob&) = delete;
  ~MmapBlob();

  std::string_view bytes() const {
    if (addr_ == nullptr) return std::string_view();
    return std::string_view(static_cast<const char*>(addr_), len_);
  }

 private:
  MmapBlob(void* addr, size_t len) : addr_(addr), len_(len) {}

  void* addr_;  ///< null for the empty-file mapping-less case
  size_t len_;
};

}  // namespace seagull
