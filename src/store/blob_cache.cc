#include "store/blob_cache.h"

#include <functional>
#include <utility>

#include "common/obs/metrics.h"
#include "store/mmap_blob.h"

namespace seagull {

BlobCache::BlobCache(int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes < 0 ? 0 : capacity_bytes),
      shard_capacity_(capacity_bytes_ / kShards) {
  auto& reg = MetricsRegistry::Global();
  hits_ = reg.GetCounter("seagull.lake.cache_events", {{"event", "hit"}});
  misses_ = reg.GetCounter("seagull.lake.cache_events", {{"event", "miss"}});
  evictions_ =
      reg.GetCounter("seagull.lake.cache_events", {{"event", "evict"}});
  invalidations_ =
      reg.GetCounter("seagull.lake.cache_events", {{"event", "invalidate"}});
  bytes_gauge_ = reg.GetGauge("seagull.lake.cache_bytes");
}

int64_t BlobCache::ChargeOf(const BlobRef& blob) {
  return MmapBlob::ResidentEstimate(static_cast<int64_t>(blob.size()));
}

BlobCache::Shard& BlobCache::ShardOf(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

void BlobCache::DropLocked(
    Shard& shard,
    std::unordered_map<std::string, std::list<Entry>::iterator>::iterator it) {
  const int64_t charge = ChargeOf(it->second->blob);
  shard.bytes -= charge;
  bytes_gauge_->Add(-static_cast<double>(charge));
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

BlobRef BlobCache::Lookup(const std::string& key, const Fingerprint& fp) {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_->Increment();
    return BlobRef();
  }
  if (!(it->second->fp == fp)) {
    // The file changed behind our back; the entry caches a dead
    // snapshot. Holders of refs handed out earlier keep the old mapping
    // alive — dropping here only drops the cache's pin.
    DropLocked(shard, it);
    invalidations_->Increment();
    misses_->Increment();
    return BlobRef();
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->Increment();
  return it->second->blob;
}

void BlobCache::Insert(const std::string& key, const Fingerprint& fp,
                       BlobRef blob) {
  if (!blob) return;
  const int64_t charge = ChargeOf(blob);
  if (charge > shard_capacity_) return;  // would evict a whole shard
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) DropLocked(shard, it);
  while (shard.bytes + charge > shard_capacity_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    const int64_t victim_charge = ChargeOf(victim.blob);
    shard.bytes -= victim_charge;
    bytes_gauge_->Add(-static_cast<double>(victim_charge));
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_->Increment();
  }
  shard.lru.push_front(Entry{key, fp, std::move(blob)});
  shard.index[key] = shard.lru.begin();
  shard.bytes += charge;
  bytes_gauge_->Add(static_cast<double>(charge));
}

void BlobCache::Invalidate(const std::string& key) {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return;
  DropLocked(shard, it);
  invalidations_->Increment();
}

void BlobCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes_gauge_->Add(-static_cast<double>(shard.bytes));
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

int64_t BlobCache::size_bytes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

int64_t BlobCache::entry_count() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.index.size());
  }
  return total;
}

}  // namespace seagull
