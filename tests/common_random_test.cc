#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace seagull {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(RngTest, UniformIntIsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all of {3,4,5} appear
}

TEST(RngTest, GaussianMomentsApproximate) {
  Rng rng(10);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, ChanceRespectsProbability) {
  Rng rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  Rng rng2(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng2.Chance(0.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double e = rng.Exponential(5.0);
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng base(42);
  Rng child1 = base.Fork(1);
  Rng child2 = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.Next() == child2.Next()) ++same;
  }
  EXPECT_LT(same, 2);
  // Fork is deterministic: the same salt yields the same stream.
  Rng again(42);
  Rng child1b = again.Fork(1);
  Rng child1c = Rng(42).Fork(1);
  EXPECT_EQ(child1b.Next(), child1c.Next());
}

TEST(RngTest, HashStringStableAndSpread) {
  EXPECT_EQ(Rng::HashString("server-1"), Rng::HashString("server-1"));
  EXPECT_NE(Rng::HashString("server-1"), Rng::HashString("server-2"));
  EXPECT_NE(Rng::HashString(""), Rng::HashString("a"));
  // The published FNV-1a 64 vectors: the fault and retry schedules and
  // the serving shard map are keyed on these exact values.
  EXPECT_EQ(Rng::HashString(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Rng::HashString("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Rng::HashString("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace seagull
