#include "common/random.h"

#include <cmath>

#include "common/hash.h"

namespace seagull {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  has_spare_ = false;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53-bit mantissa from the top bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * m;
  has_spare_ = true;
  return u * m;
}

double Rng::Gaussian(double mu, double sigma) { return mu + sigma * Gaussian(); }

bool Rng::Chance(double p) { return Uniform() < p; }

double Rng::Exponential(double mean) {
  double u;
  do {
    u = Uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Rng Rng::Fork(uint64_t salt) const {
  uint64_t mix = s_[0] ^ Rotl(salt * 0x9e3779b97f4a7c15ULL, 31);
  return Rng(mix);
}

uint64_t Rng::HashString(const std::string& s) {
  return Fnv1aFold(kFnv1aBasis, s);
}

}  // namespace seagull
