/// \file metrics.h
/// \brief Typed, lock-sharded metrics registry.
///
/// The fleet-scale half of §6's operations story: every hot layer
/// (stores, thread pool, pipeline modules, forecast train/infer, retry
/// and fault paths) publishes counters, gauges, and fixed-bucket
/// histograms into one process-wide registry, named
/// `seagull.<layer>.<metric>` with optional `{key=value}` labels.
///
/// Design constraints, in order:
///  - **Hot-path cost**: instruments are resolved once (`GetCounter`
///    returns a stable pointer for the registry's lifetime) and updated
///    with relaxed atomics — no locks on the increment path. Lookup
///    itself shards its lock by name hash so unrelated layers don't
///    contend.
///  - **Observational only**: nothing reads a metric to make a decision;
///    scheduling, retry jitter, and model fitting never touch this
///    layer. That keeps the fleet determinism contract intact — a
///    frozen clock (see obs/clock.h) makes even histogram bucket
///    contents byte-stable across jobs=1 and jobs=8.
///  - **Bounded cardinality**: a per-name cap on label sets
///    (`kMaxCardinality`) routes runaway label values into one
///    `{overflow="true"}` child instead of growing without bound.
///
/// Exporter: `MetricsSnapshot::ToJson()` (the CLI's `--metrics-out`
/// and the bench trajectory files).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace seagull {

/// Label set of one instrument, canonicalized (sorted by key) by the
/// registry on lookup.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (queue depth, worker
/// count). `Max` keeps a high-water mark instead.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `v` if below it (high-water mark).
  void Max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram with lock-free observation.
///
/// Buckets are cumulative-upper-bound style (Prometheus `le`): an
/// observation lands in the first bucket whose edge is >= the value,
/// with an implicit +inf bucket at the end. Quantiles are estimated by
/// linear interpolation inside the containing bucket — good enough for
/// p50/p95/p99 dashboards, and deterministic given deterministic
/// observations.
class Histogram {
 public:
  /// Microsecond latency edges spanning 50us..10s.
  static const std::vector<double>& DefaultLatencyEdgesMicros();

  explicit Histogram(std::vector<double> edges);

  void Observe(double value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& edges() const { return edges_; }
  /// Count in bucket `i` (i == edges().size() is the +inf bucket).
  int64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Estimated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  void Reset();

 private:
  std::vector<double> edges_;  ///< ascending upper bounds
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  ///< edges + inf
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief One instrument's state at snapshot time.
struct MetricSample {
  enum class Kind : int8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  MetricLabels labels;
  int64_t counter_value = 0;
  double gauge_value = 0.0;
  // Histogram fields.
  int64_t count = 0;
  double sum = 0.0;
  std::vector<double> edges;
  std::vector<int64_t> buckets;  ///< edges.size() + 1 (+inf last)
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;

  /// `name{k=v,...}` — the flat key used by the JSON exporter and by
  /// snapshot diffs in tests.
  std::string Key() const;
};

/// \brief Point-in-time copy of every registered instrument, sorted by
/// `Key()` so two snapshots of identical state serialize identically.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  Json ToJson() const;
  /// Copy without samples whose name starts with any prefix — the
  /// determinism tests drop `seagull.pool.` (worker/steal counts are
  /// schedule-dependent by design).
  MetricsSnapshot Without(const std::vector<std::string>& prefixes) const;
  /// Counter samples only, as flat key -> value (the perf-budget and
  /// determinism currencies).
  std::map<std::string, int64_t> CounterValues() const;
};

/// \brief Process-wide instrument registry.
///
/// Thread-safe. Instruments are created on first lookup and live until
/// process exit; `Reset()` zeroes values but never invalidates pointers,
/// so layers may cache their instruments across bench phases and test
/// cases.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry();

  Counter* GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, MetricLabels labels = {});
  /// `edges` is honored on first registration of (name, labels);
  /// subsequent lookups return the existing instrument. Empty edges
  /// mean `Histogram::DefaultLatencyEdgesMicros()`.
  Histogram* GetHistogram(const std::string& name, MetricLabels labels = {},
                          std::vector<double> edges = {});

  /// Zeroes every instrument (registrations and pointers survive).
  void Reset();

  MetricsSnapshot Snapshot() const;

  /// Label sets per metric name; lookups beyond the cap return the
  /// `{overflow="true"}` child and count into `OverflowCount()`.
  static constexpr int64_t kMaxCardinality = 256;
  int64_t OverflowCount() const {
    return overflow_.load(std::memory_order_relaxed);
  }

 private:
  struct Instrument {
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::pair<std::string, MetricLabels>, Instrument> instruments;
    std::map<std::string, int64_t> cardinality;  ///< label sets per name
  };

  Shard& ShardOf(const std::string& name);
  /// Finds or creates (name, labels) of `kind`, applying the
  /// cardinality cap; `edges` is only read for new histograms.
  Instrument* Find(MetricSample::Kind kind, const std::string& name,
                   MetricLabels labels, std::vector<double> edges);

  static constexpr int kShards = 16;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> overflow_{0};
};

/// \name Process memory plane.
///
/// The fleet-scale memory contract ("a 100k-server run completes with
/// bounded peak RSS") is gated on the kernel's own accounting, not on
/// allocator introspection: `VmHWM`/`VmRSS` from /proc/self/status.
/// Values are bytes; -1 means the platform does not expose them (the
/// gauges are then simply not written, never written as garbage).
/// @{

/// Peak resident set size of this process (`VmHWM`), in bytes.
int64_t ReadPeakRssBytes();

/// Current resident set size of this process (`VmRSS`), in bytes.
int64_t ReadCurrentRssBytes();

/// Samples both values into the global registry:
/// `seagull.process.peak_rss_bytes` (high-water: `Gauge::Max`) and
/// `seagull.process.rss_bytes` (last sample). Call at phase boundaries
/// — the end of a fleet run, module completion in ingestion, bench
/// phase edges — so snapshots carry the memory
/// trajectory without a sampler thread (which would break the
/// determinism contract). Returns the sampled peak, -1 if unavailable.
int64_t SampleProcessRss();

/// Returns freed heap pages to the kernel (`malloc_trim(0)` on glibc;
/// a no-op elsewhere, returning false). Call before an RSS sample
/// whose job is to observe *live* memory: without the trim, pages the
/// allocator retains for reuse after a `DocStore::DropPartition` keep
/// the sample at its historical high even though nothing references
/// them.
bool TrimMallocArenas();

/// @}

}  // namespace seagull
