/// \file blob_cache.h
/// \brief Sharded LRU cache of immutable lake blobs.
///
/// The FleetRunner's parallel region×week runs read overlapping 4-week
/// telemetry windows: with W weeks of history, every extraction is read
/// up to four times per fleet run, and twice that across back-to-back
/// runs. `BlobCache` keeps whole blobs as `BlobRef`s over
/// page-cache-backed mappings, so concurrent readers share one
/// immutable mapping instead of each mapping (or copying) the file.
///
/// Coherence rule: an entry is valid only while the backing file's
/// (size, mtime, inode, ctime) fingerprint matches the one captured at
/// insert time. `LakeStore::Put`/`Delete` invalidate eagerly; writes
/// that bypass the store (another process, direct filesystem edits) are
/// caught by the fingerprint check on the next lookup. The inode
/// component catches tmp+rename replacement (new inode, even at equal
/// size and a copied-back mtime); the ctime component catches in-place
/// truncate-to-same-size rewrites with a restored mtime, because ctime
/// is kernel-controlled and cannot be set backwards from userspace.
/// Both matter doubly because entries are mappings: serving a stale
/// entry would alias pages of a different file generation.
///
/// Accounting: every entry charges a page-rounded mapped-resident
/// estimate (what its mapping costs once fully faulted in), and
/// `seagull.lake.cache_bytes` tracks the same number.
///
/// Sharded by key hash: each shard has its own mutex, LRU list, and
/// capacity slice, so parallel regions touching different keys never
/// contend on one lock.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/blob_ref.h"

namespace seagull {

class Counter;
class Gauge;

/// \brief Thread-safe sharded LRU keyed by lake key.
class BlobCache {
 public:
  /// Identity of the file snapshot an entry caches. Field order is
  /// part of the API: older call sites aggregate-initialize the first
  /// two fields and rely on inode/ctime defaulting to zero.
  struct Fingerprint {
    int64_t size = 0;
    int64_t mtime_ns = 0;
    int64_t inode = 0;     ///< st_ino — changes on tmp+rename replace
    int64_t ctime_ns = 0;  ///< st_ctim — bumps on any in-place rewrite
    bool operator==(const Fingerprint& o) const {
      return size == o.size && mtime_ns == o.mtime_ns && inode == o.inode &&
             ctime_ns == o.ctime_ns;
    }
  };

  /// `capacity_bytes` is split evenly across shards; a blob larger than
  /// one shard's slice is served uncached.
  explicit BlobCache(int64_t capacity_bytes);

  /// The cached blob for `key` if present and its fingerprint still
  /// matches `fp`; an empty ref on miss. A stale entry (fingerprint
  /// mismatch) is dropped and counted as both an invalidation and a
  /// miss.
  BlobRef Lookup(const std::string& key, const Fingerprint& fp);

  /// Inserts (or replaces) the entry for `key`, evicting least-recently
  /// used entries from the shard as needed. An empty ref is ignored.
  void Insert(const std::string& key, const Fingerprint& fp, BlobRef blob);

  /// Drops `key` if cached (writer-side coherence: Put/Delete).
  void Invalidate(const std::string& key);

  /// Drops everything.
  void Clear();

  /// What an entry for `blob` charges against capacity: the
  /// page-rounded resident estimate of its mapping.
  static int64_t ChargeOf(const BlobRef& blob);

  int64_t capacity_bytes() const { return capacity_bytes_; }
  int64_t size_bytes() const;
  int64_t entry_count() const;

 private:
  struct Entry {
    std::string key;
    Fingerprint fp;
    BlobRef blob;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    int64_t bytes = 0;
  };

  Shard& ShardOf(const std::string& key);
  void DropLocked(Shard& shard,
                  std::unordered_map<std::string,
                                     std::list<Entry>::iterator>::iterator it);

  static constexpr int kShards = 8;
  int64_t capacity_bytes_;
  int64_t shard_capacity_;
  Shard shards_[kShards];

  // Resolved once; the registry guarantees pointer stability.
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Counter* invalidations_;
  Gauge* bytes_gauge_;
};

}  // namespace seagull
