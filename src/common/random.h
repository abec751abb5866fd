/// \file random.h
/// \brief Deterministic pseudo-random generation for the fleet simulator.
///
/// Every stochastic component in Seagull derives its stream from an
/// explicit seed so that tests and benchmark figures are reproducible
/// run-to-run. The generator is SplitMix64-seeded xoshiro256++.

#pragma once

#include <cstdint>
#include <string>

namespace seagull {

/// \brief Small, fast, deterministic PRNG (xoshiro256++).
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  /// Re-seeds the stream via SplitMix64 expansion of `seed`.
  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal deviate (Box–Muller, cached spare).
  double Gaussian();

  /// Normal with mean `mu` and standard deviation `sigma`.
  double Gaussian(double mu, double sigma);

  /// Bernoulli trial.
  bool Chance(double p);

  /// Exponential deviate with the given mean.
  double Exponential(double mean);

  /// Derives an independent child generator; `salt` distinguishes
  /// siblings (e.g. one stream per server id).
  Rng Fork(uint64_t salt) const;

  /// Stable 64-bit hash of a string (FNV-1a, common/hash.h), for
  /// seeding per-name streams.
  static uint64_t HashString(const std::string& s);

 private:
  uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace seagull
