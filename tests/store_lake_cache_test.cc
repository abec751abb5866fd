/// \file store_lake_cache_test.cc
/// \brief The lake's mmap read path and its shared-mapping cache:
/// hit/miss/eviction accounting, writer- and fingerprint-driven
/// invalidation, mapping lifetime past eviction, staleness detection by
/// inode and ctime, and the fleet-level contract that a second
/// identical run is served from memory.

#include "store/blob_cache.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "common/obs/metrics.h"
#include "pipeline/fleet_runner.h"
#include "store/lake_store.h"
#include "store/mmap_blob.h"
#include "telemetry/emitter.h"
#include "telemetry/fleet.h"

namespace seagull {
namespace {

int64_t CacheEvents(const char* event) {
  return MetricsRegistry::Global()
      .GetCounter("seagull.lake.cache_events", {{"event", event}})
      ->Value();
}

struct EventDeltas {
  int64_t hit0 = CacheEvents("hit");
  int64_t miss0 = CacheEvents("miss");
  int64_t evict0 = CacheEvents("evict");
  int64_t invalidate0 = CacheEvents("invalidate");
  int64_t hits() const { return CacheEvents("hit") - hit0; }
  int64_t misses() const { return CacheEvents("miss") - miss0; }
  int64_t evictions() const { return CacheEvents("evict") - evict0; }
  int64_t invalidations() const {
    return CacheEvents("invalidate") - invalidate0;
  }
};

TEST(LakeCacheTest, GetBlobWorksWithoutCache) {
  auto lake = LakeStore::OpenTemporary("cache_off");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake->Put("a/blob.txt", "hello").ok());
  auto blob = lake->GetBlob("a/blob.txt");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "hello");
  EXPECT_EQ(lake->cache(), nullptr);
  EXPECT_TRUE(lake->GetBlob("a/missing").status().IsNotFound());
}

TEST(LakeCacheTest, RepeatReadsShareOneMapping) {
  auto lake = LakeStore::OpenTemporary("cache_hit");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(16 << 20);
  ASSERT_TRUE(lake->Put("k", "payload").ok());
  EventDeltas d;
  auto first = lake->GetBlob("k");
  ASSERT_TRUE(first.ok());
  auto second = lake->GetBlob("k");
  ASSERT_TRUE(second.ok());
  // Same immutable mapping, not an equal copy.
  EXPECT_EQ(first->data(), second->data());
  EXPECT_EQ(first->owner(), second->owner());
  EXPECT_EQ(d.hits(), 1);
  EXPECT_EQ(d.misses(), 1);
  EXPECT_EQ(lake->cache()->entry_count(), 1);
  EXPECT_EQ(lake->cache()->size_bytes(), MmapBlob::ResidentEstimate(7));
}

TEST(LakeCacheTest, PutThroughStoreInvalidates) {
  auto lake = LakeStore::OpenTemporary("cache_put");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(16 << 20);
  ASSERT_TRUE(lake->Put("k", "one").ok());
  ASSERT_TRUE(lake->GetBlob("k").ok());  // warm
  EventDeltas d;
  ASSERT_TRUE(lake->Put("k", "two").ok());
  EXPECT_EQ(d.invalidations(), 1);
  auto blob = lake->GetBlob("k");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "two");
  EXPECT_EQ(d.misses(), 1);  // re-read after the overwrite
}

TEST(LakeCacheTest, DeleteThroughStoreInvalidates) {
  auto lake = LakeStore::OpenTemporary("cache_del");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(16 << 20);
  ASSERT_TRUE(lake->Put("k", "one").ok());
  ASSERT_TRUE(lake->GetBlob("k").ok());
  ASSERT_TRUE(lake->Delete("k").ok());
  EXPECT_EQ(lake->cache()->entry_count(), 0);
  EXPECT_TRUE(lake->GetBlob("k").status().IsNotFound());
}

TEST(LakeCacheTest, ExternalWriteCaughtByFingerprint) {
  auto cached = LakeStore::OpenTemporary("cache_ext");
  ASSERT_TRUE(cached.ok());
  cached->ConfigureCache(16 << 20);
  ASSERT_TRUE(cached->Put("k", "original").ok());
  ASSERT_TRUE(cached->GetBlob("k").ok());  // warm

  // A second store handle over the same directory bypasses the cache —
  // the moral equivalent of another process writing the blob. The new
  // content has a different size, so the (size, mtime) fingerprint
  // cannot collide even on coarse-mtime filesystems.
  auto writer = LakeStore::Open(cached->root());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Put("k", "rewritten elsewhere").ok());

  EventDeltas d;
  auto blob = cached->GetBlob("k");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "rewritten elsewhere");
  EXPECT_EQ(d.invalidations(), 1);  // stale entry dropped on lookup
  EXPECT_EQ(d.misses(), 1);
}

TEST(LakeCacheTest, EvictsLeastRecentlyUsedWithinCapacity) {
  // Entries charge a page-rounded mapping estimate, so 60 bytes cost
  // one page and a shard of 1.5 pages holds exactly one entry.
  const int64_t page = MmapBlob::ResidentEstimate(1);
  BlobCache cache(/*capacity_bytes=*/8 * (page + page / 2));
  EventDeltas d;
  auto payload = std::make_shared<const std::string>(60, 'x');
  const BlobRef blob(*payload, payload);
  EXPECT_EQ(BlobCache::ChargeOf(blob), page);
  // Two one-page blobs cannot share one shard; hammering many keys
  // must keep every shard within its slice and count evictions.
  for (int i = 0; i < 64; ++i) {
    cache.Insert("key-" + std::to_string(i), {60, i}, blob);
  }
  EXPECT_GT(d.evictions(), 0);
  EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
  EXPECT_LE(cache.entry_count(), 8);  // one entry per shard
}

TEST(LakeCacheTest, OversizedBlobIsServedUncached) {
  auto lake = LakeStore::OpenTemporary("cache_big");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(8 * 16);  // 16-byte shards
  ASSERT_TRUE(lake->Put("big", std::string(1024, 'y')).ok());
  auto blob = lake->GetBlob("big");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), 1024u);
  EXPECT_EQ(lake->cache()->entry_count(), 0);
}

TEST(LakeCacheTest, StoreCopiesShareTheCache) {
  auto lake = LakeStore::OpenTemporary("cache_copy");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(16 << 20);
  ASSERT_TRUE(lake->Put("k", "shared").ok());
  LakeStore copy = *lake;  // how FleetRunner-style borrowers hold it
  ASSERT_TRUE(copy.GetBlob("k").ok());  // warm through the copy
  EventDeltas d;
  auto blob = lake->GetBlob("k");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(d.hits(), 1);
  EXPECT_EQ(d.misses(), 0);
}

TEST(LakeCacheTest, GetBlobMapsTheFile) {
  auto lake = LakeStore::OpenTemporary("mmap_default");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake->Put("k", "mapped payload").ok());
  auto mapped = lake->GetBlob("k");
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(*mapped);
  EXPECT_EQ(mapped->view(), "mapped payload");
  // A mapping starts on a page boundary; a heap copy of 14 bytes
  // would not.
  const auto page = static_cast<uintptr_t>(MmapBlob::ResidentEstimate(1));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(mapped->data()) % page, 0u);
}

TEST(LakeCacheTest, MappedCacheEntryChargesResidentEstimate) {
  auto lake = LakeStore::OpenTemporary("mmap_charge");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(16 << 20);
  ASSERT_TRUE(lake->Put("k", std::string(10, 'p')).ok());
  EventDeltas d;
  auto first = lake->GetBlob("k");
  ASSERT_TRUE(first.ok());
  auto second = lake->GetBlob("k");
  ASSERT_TRUE(second.ok());
  // Same mapping served twice, charged at page granularity: a mapped
  // page is resident memory whether 10 bytes or 4096 are used.
  EXPECT_EQ(first->data(), second->data());
  EXPECT_EQ(d.hits(), 1);
  EXPECT_EQ(d.misses(), 1);
  EXPECT_EQ(lake->cache()->entry_count(), 1);
  EXPECT_EQ(lake->cache()->size_bytes(), MmapBlob::ResidentEstimate(10));
}

TEST(LakeCacheTest, MappedPinOutlivesEvictionAndInvalidation) {
  auto lake = LakeStore::OpenTemporary("mmap_pin");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(16 << 20);
  ASSERT_TRUE(lake->Put("k", "generation one").ok());
  auto pinned = lake->GetBlob("k");
  ASSERT_TRUE(pinned.ok());
  std::string_view view = pinned->view();

  // Overwrite (tmp + rename: the mapped inode stays alive), then
  // delete. Both invalidate the cache entry; neither may disturb the
  // outstanding mapping — this is the pin contract SeriesBlockCursor
  // relies on when decoding straight out of the lake.
  ASSERT_TRUE(lake->Put("k", "generation two").ok());
  auto fresh = lake->GetBlob("k");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->view(), "generation two");
  ASSERT_TRUE(lake->Delete("k").ok());
  EXPECT_EQ(view, "generation one");  // old pages still readable
  EXPECT_EQ(pinned->view(), "generation one");
}

TEST(LakeCacheTest, RenameReplaceSameSizeCaughtByInode) {
  auto cached = LakeStore::OpenTemporary("mmap_inode");
  ASSERT_TRUE(cached.ok());
  cached->ConfigureCache(16 << 20);
  ASSERT_TRUE(cached->Put("k", "AAAA").ok());
  ASSERT_TRUE(cached->GetBlob("k").ok());  // warm

  // Same-size replacement through a second handle: every store write is
  // tmp + rename, so the file keeps its size but changes inode. On
  // filesystems with coarse timestamps size+mtime alone could collide;
  // the inode field cannot.
  auto writer = LakeStore::Open(cached->root());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Put("k", "BBBB").ok());

  EventDeltas d;
  auto blob = cached->GetBlob("k");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "BBBB");
  EXPECT_EQ(d.invalidations(), 1);
}

TEST(LakeCacheTest, InPlaceSameSizeRewriteCaughtByCtime) {
  auto lake = LakeStore::OpenTemporary("mmap_ctime");
  ASSERT_TRUE(lake.ok());
  lake->ConfigureCache(16 << 20);
  ASSERT_TRUE(lake->Put("k", "AAAA").ok());
  ASSERT_TRUE(lake->GetBlob("k").ok());  // warm

  // Adversarial external writer: rewrite the file in place (same
  // inode, same size) and restore the original mtime. Only st_ctime —
  // which no userspace call can set — still witnesses the change.
  const std::string path = lake->root() + "/k";
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "BBBB";
    ASSERT_TRUE(out.good());
  }
  const struct timespec times[2] = {before.st_atim, before.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);

  EventDeltas d;
  auto blob = lake->GetBlob("k");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "BBBB");
  EXPECT_EQ(d.invalidations(), 1);
}

TEST(LakeCacheTest, EmptyBlobMapsToEmptyView) {
  auto lake = LakeStore::OpenTemporary("mmap_empty");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake->Put("empty", "").ok());
  auto blob = lake->GetBlob("empty");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), 0);
  EXPECT_TRUE(blob->view().empty());
}

TEST(LakeCacheTest, PutStreamedWritesAtomicallyAndHidesTmpFiles) {
  auto lake = LakeStore::OpenTemporary("streamed");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake
                  ->PutStreamed("dir/streamed.bin",
                                [](std::ostream& out) {
                                  out << "part one,";
                                  out << "part two";
                                  return Status::OK();
                                })
                  .ok());
  auto blob = lake->GetBlob("dir/streamed.bin");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "part one,part two");

  // A failing writer must leave no blob and no staging debris behind.
  EXPECT_FALSE(lake
                   ->PutStreamed("dir/failed.bin",
                                 [](std::ostream& out) {
                                   out << "half-written";
                                   return Status::IOError("writer gave up");
                                 })
                   .ok());
  EXPECT_FALSE(lake->Exists("dir/failed.bin"));
  auto keys = lake->List("");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], "dir/streamed.bin");
}

TEST(LakeCacheTest, SecondIdenticalFleetRunIsServedFromCache) {
  // The tentpole's throughput claim at test scale: two identical fleet
  // runs against one cache-enabled lake; the second run's telemetry
  // reads must be >= 90% cache hits (here: all of them).
  auto opened = LakeStore::OpenTemporary("cache_fleet");
  ASSERT_TRUE(opened.ok());
  LakeStore lake = std::move(opened).ValueUnsafe();
  lake.ConfigureCache(64 << 20);
  const char* const regions[] = {"hit-a", "hit-b"};
  uint64_t seed = 70;
  for (const char* region : regions) {
    RegionConfig config;
    config.name = region;
    config.num_servers = 10;
    config.weeks = 4;
    config.seed = seed++;
    Fleet fleet = Fleet::Generate(config);
    ASSERT_TRUE(lake.Put(LakeStore::TelemetryKey(region, 3),
                         ExtractWeekBlock(fleet, 3))
                    .ok());
  }

  auto run_once = [&] {
    DocStore docs;  // fresh docs: the scheduler sees the week as due
    FleetRunner runner(&lake, &docs);
    std::vector<FleetJob> jobs;
    for (const char* region : regions) jobs.push_back({region, 3});
    PipelineContext config;
    config.model_name = "persistent_prev_day";
    FleetRunResult result = runner.Run(jobs, config);
    ASSERT_EQ(result.SuccessCount(), 2);
  };

  run_once();  // cold: misses fill the cache
  EventDeltas d;
  run_once();  // warm: every telemetry read hits
  const int64_t hits = d.hits();
  const int64_t misses = d.misses();
  ASSERT_GT(hits, 0);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9);
}

}  // namespace
}  // namespace seagull
