#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/random.h"

namespace seagull {

namespace {

/// SplitMix64-style mix for the jitter stream (same construction as the
/// fault registry's decision hash, different constants-by-inputs).
uint64_t MixJitter(uint64_t seed, uint64_t key_hash, uint64_t attempt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (key_hash + 3) +
               0x94d049bb133111ebULL * (attempt + 5);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool IsRetryableStatus(const Status& status) {
  return status.IsIOError() || status.IsResourceExhausted();
}

double BackoffMillis(const RetryPolicy& policy, const std::string& op_key,
                     int attempt) {
  if (attempt < 1) attempt = 1;
  double backoff = policy.base_backoff_millis;
  for (int k = 1; k < attempt; ++k) backoff *= policy.backoff_multiplier;
  backoff = std::min(backoff, policy.max_backoff_millis);
  if (policy.jitter_fraction > 0.0) {
    const uint64_t h = MixJitter(policy.jitter_seed, Rng::HashString(op_key),
                                 static_cast<uint64_t>(attempt));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    backoff *= 1.0 + policy.jitter_fraction * (2.0 * u - 1.0);
  }
  return std::max(backoff, 0.0);
}

RetryOutcome RunWithRetry(
    const RetryPolicy& policy, const std::string& op_key,
    const std::function<Status()>& op,
    const std::function<void(int, const Status&)>& on_retry) {
  RetryOutcome outcome;
  const int max_attempts = std::max(policy.max_attempts, 1);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    Status status = op();
    outcome.attempts = attempt;
    if (status.ok() || !IsRetryableStatus(status)) {
      outcome.status = status;
      return outcome;
    }
    if (attempt == max_attempts) {
      outcome.status = status;
      outcome.exhausted = true;
      return outcome;
    }
    if (on_retry) on_retry(attempt, status);
    const double backoff = BackoffMillis(policy, op_key, attempt);
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff));
    }
  }
  return outcome;  // unreachable
}

}  // namespace seagull
