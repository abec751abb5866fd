/// \file retry.h
/// \brief Retry/backoff policy for transient failures.
///
/// Production Seagull leans on Azure SDK retries for blob and Cosmos
/// hiccups and falls back "as appropriate" when they persist (§1,
/// §2.2). This is the reproduction's equivalent: exponential backoff
/// with *deterministic* jitter (a hash of the operation key and attempt
/// index, never a live RNG), a retryable-status taxonomy over
/// `StatusCode`, and an attempt budget. `RunWithRetry` is the one retry
/// loop: `Pipeline::Run` wraps each module in it, the scheduler and
/// incident manager wrap their post-run record-keeping in it, and the
/// CLI wraps its telemetry reads (`LakeStore::GetBlob`) in it.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace seagull {

/// \brief Knobs of one retry loop.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retries, the legacy
  /// fail-fast behavior).
  int max_attempts = 3;
  /// Backoff before retry k (1-based) is
  /// `min(base * multiplier^(k-1), max) * jitter`.
  double base_backoff_millis = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_millis = 64.0;
  /// Seed of the deterministic jitter stream.
  uint64_t jitter_seed = 0;
  /// Backoff is scaled by a factor in [1 - f, 1 + f).
  double jitter_fraction = 0.25;
};

/// True for status codes that model transient infrastructure failures
/// (worth retrying): `kIOError` and `kResourceExhausted`. Everything
/// else — bad input, missing data, logic errors — fails fast.
bool IsRetryableStatus(const Status& status);

/// Deterministic backoff before retry `attempt` (1-based) of the
/// operation identified by `op_key`. Pure function of the policy and
/// its inputs; two processes with the same policy compute the same
/// schedule.
double BackoffMillis(const RetryPolicy& policy, const std::string& op_key,
                     int attempt);

/// \brief What a retry loop did.
struct RetryOutcome {
  Status status;      ///< final status (OK, or the last failure)
  int attempts = 0;   ///< attempts actually made (>= 1)
  /// Retries = attempts beyond the first.
  int64_t retries() const { return attempts > 0 ? attempts - 1 : 0; }
  /// True when the loop gave up on a *retryable* failure (attempt
  /// budget spent) — the caller should degrade, not crash.
  bool exhausted = false;
};

/// Runs `op` under `policy`, sleeping the deterministic backoff between
/// attempts. `on_retry(attempt, status)` (optional) fires before each
/// backoff sleep, letting callers record an incident per retry.
RetryOutcome RunWithRetry(
    const RetryPolicy& policy, const std::string& op_key,
    const std::function<Status()>& op,
    const std::function<void(int, const Status&)>& on_retry = nullptr);

}  // namespace seagull
