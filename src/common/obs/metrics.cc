#include "common/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/strings.h"

namespace seagull {

const std::vector<double>& Histogram::DefaultLatencyEdgesMicros() {
  static const std::vector<double>* edges = new std::vector<double>{
      50,     100,    250,    500,     1000,    2500,    5000,     10000,
      25000,  50000,  100000, 250000,  500000,  1000000, 2500000,  10000000};
  return *edges;
}

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.empty()) edges_ = DefaultLatencyEdgesMicros();
  std::sort(edges_.begin(), edges_.end());
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(edges_.size() + 1);
  for (size_t i = 0; i <= edges_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound admits the value; +inf otherwise.
  size_t i = static_cast<size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), value) -
      edges_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  const int64_t total = Count();
  if (total <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t i = 0; i <= edges_.size(); ++i) {
    const int64_t in_bucket = BucketCount(i);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // Linear interpolation inside [lower, upper).
      const double lower = i == 0 ? 0.0 : edges_[i - 1];
      // The +inf bucket has no finite upper bound; report its lower edge.
      if (i == edges_.size()) return lower;
      const double upper = edges_[i];
      const double fraction =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
    }
    cumulative += in_bucket;
  }
  return edges_.empty() ? 0.0 : edges_.back();
}

void Histogram::Reset() {
  for (size_t i = 0; i <= edges_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::string MetricSample::Key() const {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) key += ',';
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

Json MetricsSnapshot::ToJson() const {
  Json counters = Json::MakeObject();
  Json gauges = Json::MakeObject();
  Json histograms = Json::MakeObject();
  for (const auto& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        counters[s.Key()] = s.counter_value;
        break;
      case MetricSample::Kind::kGauge:
        gauges[s.Key()] = s.gauge_value;
        break;
      case MetricSample::Kind::kHistogram: {
        Json h = Json::MakeObject();
        h["count"] = s.count;
        h["sum"] = s.sum;
        h["p50"] = s.p50;
        h["p95"] = s.p95;
        h["p99"] = s.p99;
        Json buckets = Json::MakeArray();
        for (size_t i = 0; i < s.buckets.size(); ++i) {
          Json b = Json::MakeObject();
          b["le"] = i < s.edges.size() ? Json(s.edges[i]) : Json("inf");
          b["count"] = s.buckets[i];
          buckets.Append(std::move(b));
        }
        h["buckets"] = std::move(buckets);
        histograms[s.Key()] = std::move(h);
        break;
      }
    }
  }
  Json out = Json::MakeObject();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  return out;
}

MetricsSnapshot MetricsSnapshot::Without(
    const std::vector<std::string>& prefixes) const {
  MetricsSnapshot out;
  for (const auto& s : samples) {
    bool excluded = false;
    for (const auto& p : prefixes) {
      if (s.name.rfind(p, 0) == 0) {
        excluded = true;
        break;
      }
    }
    if (!excluded) out.samples.push_back(s);
  }
  return out;
}

std::map<std::string, int64_t> MetricsSnapshot::CounterValues() const {
  std::map<std::string, int64_t> out;
  for (const auto& s : samples) {
    if (s.kind == MetricSample::Kind::kCounter) out[s.Key()] = s.counter_value;
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static auto* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  shards_.reserve(kShards);
  for (int i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MetricsRegistry::Shard& MetricsRegistry::ShardOf(const std::string& name) {
  return *shards_[std::hash<std::string>{}(name) % kShards];
}

MetricsRegistry::Instrument* MetricsRegistry::Find(
    MetricSample::Kind kind, const std::string& name, MetricLabels labels,
    std::vector<double> edges) {
  std::sort(labels.begin(), labels.end());
  Shard& shard = ShardOf(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.instruments.find(std::make_pair(name, labels));
  if (it != shard.instruments.end()) return &it->second;
  // New label set: enforce the per-name cardinality cap. The unlabeled
  // instrument and the overflow child always fit.
  const bool is_overflow = labels.size() == 1 && labels[0].first == "overflow";
  if (!labels.empty() && !is_overflow &&
      shard.cardinality[name] >= kMaxCardinality) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    labels = {{"overflow", "true"}};
    auto of = shard.instruments.find(std::make_pair(name, labels));
    if (of != shard.instruments.end()) return &of->second;
  }
  Instrument inst;
  inst.kind = kind;
  switch (kind) {
    case MetricSample::Kind::kCounter:
      inst.counter = std::make_unique<Counter>();
      break;
    case MetricSample::Kind::kGauge:
      inst.gauge = std::make_unique<Gauge>();
      break;
    case MetricSample::Kind::kHistogram:
      inst.histogram = std::make_unique<Histogram>(std::move(edges));
      break;
  }
  ++shard.cardinality[name];
  auto emplaced = shard.instruments.emplace(
      std::make_pair(name, std::move(labels)), std::move(inst));
  return &emplaced.first->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     MetricLabels labels) {
  return Find(MetricSample::Kind::kCounter, name, std::move(labels), {})
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 MetricLabels labels) {
  return Find(MetricSample::Kind::kGauge, name, std::move(labels), {})
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         MetricLabels labels,
                                         std::vector<double> edges) {
  return Find(MetricSample::Kind::kHistogram, name, std::move(labels),
              std::move(edges))
      ->histogram.get();
}

void MetricsRegistry::Reset() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [key, inst] : shard->instruments) {
      switch (inst.kind) {
        case MetricSample::Kind::kCounter:
          inst.counter->Reset();
          break;
        case MetricSample::Kind::kGauge:
          inst.gauge->Reset();
          break;
        case MetricSample::Kind::kHistogram:
          inst.histogram->Reset();
          break;
      }
    }
  }
  overflow_.store(0, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, inst] : shard->instruments) {
      MetricSample s;
      s.kind = inst.kind;
      s.name = key.first;
      s.labels = key.second;
      switch (inst.kind) {
        case MetricSample::Kind::kCounter:
          s.counter_value = inst.counter->Value();
          break;
        case MetricSample::Kind::kGauge:
          s.gauge_value = inst.gauge->Value();
          break;
        case MetricSample::Kind::kHistogram: {
          const Histogram& h = *inst.histogram;
          s.count = h.Count();
          s.sum = h.Sum();
          s.edges = h.edges();
          s.buckets.resize(s.edges.size() + 1);
          for (size_t i = 0; i <= s.edges.size(); ++i) {
            s.buckets[i] = h.BucketCount(i);
          }
          s.p50 = h.Quantile(0.50);
          s.p95 = h.Quantile(0.95);
          s.p99 = h.Quantile(0.99);
          break;
        }
      }
      snapshot.samples.push_back(std::move(s));
    }
  }
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snapshot;
}

namespace {

/// Reads one "<field>: <n> kB" line of /proc/self/status; -1 if absent.
int64_t ReadProcStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  const size_t field_len = std::strlen(field);
  char line[256];
  int64_t kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) != 0 ||
        line[field_len] != ':') {
      continue;
    }
    // "<field>:\t  123456 kB": the digits are the first word.
    const std::string_view rest = TrimWhitespace(line + field_len + 1);
    kb = ParseInt64(rest.substr(0, rest.find(' '))).ValueOr(-1);
    break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace

int64_t ReadPeakRssBytes() {
  const int64_t kb = ReadProcStatusKb("VmHWM");
  return kb < 0 ? -1 : kb * 1024;
}

int64_t ReadCurrentRssBytes() {
  const int64_t kb = ReadProcStatusKb("VmRSS");
  return kb < 0 ? -1 : kb * 1024;
}

bool TrimMallocArenas() {
#if defined(__GLIBC__)
  return malloc_trim(0) != 0;
#else
  return false;
#endif
}

int64_t SampleProcessRss() {
  const int64_t peak = ReadPeakRssBytes();
  const int64_t current = ReadCurrentRssBytes();
  auto& registry = MetricsRegistry::Global();
  if (peak >= 0) {
    registry.GetGauge("seagull.process.peak_rss_bytes")
        ->Max(static_cast<double>(peak));
  }
  if (current >= 0) {
    registry.GetGauge("seagull.process.rss_bytes")
        ->Set(static_cast<double>(current));
  }
  return peak;
}

}  // namespace seagull
