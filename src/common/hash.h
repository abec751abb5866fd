/// \file hash.h
/// \brief FNV-1a, the one byte fold behind Seagull's stable hashes:
/// per-name seeds and the fault and retry schedules
/// (`Rng::HashString`), loadgen's response digest and the SGB1 trailer
/// checksum.

#pragma once

#include <cstdint>
#include <string_view>

namespace seagull {

/// The standard 64-bit FNV-1a offset basis.
inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ULL;

/// Folds `bytes` into the running FNV-1a hash `h`. Start from
/// `kFnv1aBasis`, or from a format's own frozen basis.
inline uint64_t Fnv1aFold(uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace seagull
