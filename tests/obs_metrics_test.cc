/// \file obs_metrics_test.cc
/// \brief Registry semantics of the typed metrics layer: instrument
/// identity, label canonicalization, cardinality capping, histogram
/// bucket edges and quantiles, snapshot/reset behavior under concurrent
/// writers, and both exporters (JSON round-trip through common/json,
/// Prometheus text exposition).

#include "common/obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace seagull {
namespace {

TEST(CounterTest, IncrementValueReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(GaugeTest, SetAddMax) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 5.0);
  g.Max(4.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g.Value(), 5.0);
  g.Max(9.0);
  EXPECT_DOUBLE_EQ(g.Value(), 9.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({10.0, 20.0, 30.0});
  h.Observe(5.0);    // <= 10 -> bucket 0
  h.Observe(10.0);   // == edge: its own bucket (le semantics)
  h.Observe(10.5);   // first edge >= value is 20 -> bucket 1
  h.Observe(30.0);   // bucket 2
  h.Observe(31.0);   // beyond the last edge -> +inf bucket
  EXPECT_EQ(h.Count(), 5);
  EXPECT_DOUBLE_EQ(h.Sum(), 5.0 + 10.0 + 10.5 + 30.0 + 31.0);
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 1);
  EXPECT_EQ(h.BucketCount(3), 1);  // +inf
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty
  h.Observe(5.0);
  h.Observe(15.0);
  h.Observe(25.0);
  h.Observe(35.0);
  // rank 2 falls at the top of bucket [10, 20].
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 20.0);
  // The +inf bucket reports its lower edge rather than inventing a bound.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 30.0);
  // Out-of-range q is clamped.
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0));
}

TEST(HistogramTest, DefaultLatencyEdgesSpanMicrosecondsToSeconds) {
  const auto& edges = Histogram::DefaultLatencyEdgesMicros();
  ASSERT_FALSE(edges.empty());
  EXPECT_DOUBLE_EQ(edges.front(), 50.0);        // 50us floor
  EXPECT_DOUBLE_EQ(edges.back(), 10000000.0);   // 10s ceiling
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(RegistryTest, InstrumentPointersAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("obs.test.stable");
  Counter* b = registry.GetCounter("obs.test.stable");
  EXPECT_EQ(a, b);
  a->Increment(7);
  registry.Reset();  // zeroes values, never invalidates pointers
  EXPECT_EQ(b->Value(), 0);
  b->Increment();
  EXPECT_EQ(a->Value(), 1);
}

TEST(RegistryTest, LabelsAreCanonicalizedByKey) {
  MetricsRegistry registry;
  Counter* ab = registry.GetCounter("obs.test.labels",
                                    {{"a", "1"}, {"b", "2"}});
  Counter* ba = registry.GetCounter("obs.test.labels",
                                    {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);  // key order must not matter
  Counter* other = registry.GetCounter("obs.test.labels", {{"a", "2"}});
  EXPECT_NE(ab, other);
}

TEST(RegistryTest, DifferentKindsKeepDistinctNamespacesPerLabels) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("obs.test.kinds", {{"op", "put"}});
  Gauge* g = registry.GetGauge("obs.test.kinds.gauge");
  Histogram* h = registry.GetHistogram("obs.test.kinds.hist");
  c->Increment();
  g->Set(2.0);
  h->Observe(1.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.samples.size(), 3u);
}

TEST(RegistryTest, CardinalityCapRoutesToOverflowChild) {
  MetricsRegistry registry;
  const int64_t cap = MetricsRegistry::kMaxCardinality;
  std::vector<Counter*> under_cap;
  for (int64_t v = 0; v < cap; ++v) {
    under_cap.push_back(
        registry.GetCounter("obs.test.card", {{"v", std::to_string(v)}}));
  }
  EXPECT_NE(under_cap.front(), under_cap.back());
  EXPECT_EQ(registry.OverflowCount(), 0);
  // The next label sets exceed the cap: both lookups land on one
  // {overflow="true"} child instead of growing the label space.
  Counter* past1 = registry.GetCounter("obs.test.card", {{"v", "past-1"}});
  Counter* past2 = registry.GetCounter("obs.test.card", {{"v", "past-2"}});
  EXPECT_EQ(past1, past2);
  EXPECT_EQ(past1,
            registry.GetCounter("obs.test.card", {{"overflow", "true"}}));
  EXPECT_EQ(registry.OverflowCount(), 2);
  // A label set registered before the cap still resolves to itself.
  EXPECT_EQ(registry.GetCounter("obs.test.card", {{"v", "0"}}),
            under_cap.front());
  // The unlabeled instrument always fits, cap or not.
  EXPECT_NE(registry.GetCounter("obs.test.card"), past1);
  // Other names are unaffected by this name's cardinality.
  registry.GetCounter("obs.test.card2", {{"v", "9"}})->Increment();
  EXPECT_EQ(registry.OverflowCount(), 2);
}

TEST(RegistryTest, HistogramEdgesHonoredOnFirstRegistrationOnly) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("obs.test.edges", {}, {1.0, 2.0});
  ASSERT_EQ(h->edges().size(), 2u);
  // Later lookups return the existing instrument; new edges are ignored.
  Histogram* again =
      registry.GetHistogram("obs.test.edges", {}, {5.0, 6.0, 7.0});
  EXPECT_EQ(h, again);
  EXPECT_EQ(again->edges().size(), 2u);
  // Empty edges mean the default latency layout.
  Histogram* dflt = registry.GetHistogram("obs.test.edges.default");
  EXPECT_EQ(dflt->edges(), Histogram::DefaultLatencyEdgesMicros());
}

TEST(SnapshotTest, SortedKeysAndJsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("obs.z.last")->Increment(3);
  registry.GetCounter("obs.a.first", {{"op", "get"}})->Increment(1);
  registry.GetGauge("obs.m.gauge")->Set(2.5);
  Histogram* h = registry.GetHistogram("obs.m.hist", {}, {10.0, 20.0});
  h->Observe(5.0);
  h->Observe(15.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.samples.size(), 4u);
  for (size_t i = 1; i < snapshot.samples.size(); ++i) {
    EXPECT_LT(snapshot.samples[i - 1].Key(), snapshot.samples[i].Key());
  }
  EXPECT_EQ(snapshot.samples[0].Key(), "obs.a.first{op=get}");

  auto parsed = Json::Parse(snapshot.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(
      (*parsed)["counters"].GetNumber("obs.a.first{op=get}").ValueOr(-1), 1.0);
  EXPECT_DOUBLE_EQ((*parsed)["gauges"].GetNumber("obs.m.gauge").ValueOr(-1),
                   2.5);
  const Json& hist = (*parsed)["histograms"]["obs.m.hist"];
  EXPECT_DOUBLE_EQ(hist.GetNumber("count").ValueOr(-1), 2.0);
  EXPECT_DOUBLE_EQ(hist.GetNumber("sum").ValueOr(-1), 20.0);
  ASSERT_EQ(hist["buckets"].AsArray().size(), 3u);  // 2 edges + inf
  EXPECT_EQ(hist["buckets"].AsArray()[2].GetString("le").ValueOr(""), "inf");
}

TEST(SnapshotTest, WithoutDropsPrefixesAndCounterValuesFlattens) {
  MetricsRegistry registry;
  registry.GetCounter("seagull.pool.stolen")->Increment(5);
  registry.GetCounter("seagull.lake.ops", {{"op", "get"}})->Increment(2);
  registry.GetGauge("seagull.pool.workers")->Set(8.0);
  MetricsSnapshot snapshot =
      registry.Snapshot().Without({"seagull.pool."});
  ASSERT_EQ(snapshot.samples.size(), 1u);
  auto counters = snapshot.CounterValues();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters["seagull.lake.ops{op=get}"], 2);
}

TEST(RegistryTest, SnapshotAndResetRaceWithWriters) {
  // 8 writer threads hammer one counter + one histogram while the main
  // thread interleaves Snapshot() and Reset(). The assertion is
  // structural (no torn reads, monotonically sane values); tsan turns
  // this into a data-race detector for the whole lookup/update path.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      Counter* c = registry.GetCounter("obs.race.ops",
                                       {{"writer", std::to_string(t % 2)}});
      Histogram* h = registry.GetHistogram("obs.race.micros");
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<double>(i % 100));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snapshot = registry.Snapshot();
    for (const auto& s : snapshot.samples) {
      EXPECT_GE(s.counter_value, 0);
      EXPECT_GE(s.count, 0);
    }
    if (i % 10 == 9) registry.Reset();
  }
  for (auto& w : writers) w.join();
  // After the final reset + remaining writes, totals are bounded by what
  // the writers could have produced.
  auto counters = registry.Snapshot().CounterValues();
  int64_t total = 0;
  for (const auto& [key, value] : counters) total += value;
  EXPECT_GE(total, 0);
  EXPECT_LE(total, static_cast<int64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace seagull
