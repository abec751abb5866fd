/// \file batch.h
/// \brief Cross-server batched model training.
///
/// The training module fans one independent `Fit()` per server across
/// the thread pool; at fleet scale most of those fits repeat work,
/// because servers in one region share a telemetry grid — same slice
/// start/end, same interval — and the expensive per-fit structures
/// (the additive model's design matrix and its AᵀA Gram) depend only on
/// that grid, not on the load values. `BatchTrainer` groups same-shape
/// series, builds the shared structures once per group through the
/// cache-blocked kernels, and runs the per-server optimizer cores
/// against them, so per-server fit cost amortizes across the fleet.
///
/// Equivalence contract (tests/forecast_batch_equivalence_test.cc):
/// every item's result — coefficients, serialized document, error
/// status — is byte-identical to `ModelFactory::Create(name)->Fit()` on
/// the same series, at any pool width. This
/// holds by construction: the batched path executes the exact same
/// operation sequence as a per-server fit, merely sourcing the shared
/// inputs (which are bit-identical doubles either way) from the group.
///
/// Determinism: groups are formed in input order and processed
/// sequentially; items fan out via `ParallelFor`, each writing only its
/// own result slot. Shared group structures are built once on the
/// calling thread and read-only during the fan-out — they live on the
/// heap (owned by the group loop), NOT in `KernelScratch`, because pool
/// workers each see their own thread-local arena.

#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "forecast/model.h"
#include "timeseries/series.h"

namespace seagull {

class ThreadPool;

/// \brief One server's training slice.
struct BatchTrainItem {
  const LoadSeries* train = nullptr;
};

/// \brief Outcome for one item, in input order.
struct BatchTrainResult {
  Status status;       ///< fit/serialize outcome (default OK)
  Json doc;            ///< serialized model when status is OK
  double fit_micros = 0.0;  ///< this item's own fit time (shared group
                            ///< construction excluded — it is amortized)
};

/// \brief Aggregate batching counters for pipeline stats.
struct BatchTrainStats {
  int64_t groups = 0;       ///< shape groups formed
  int64_t shared_fits = 0;  ///< fits that reused a group-shared structure
};

/// \brief Groups same-shape series and trains them in shared-kernel
/// batches.
class BatchTrainer {
 public:
  /// Fits `model_name` on every item. Results are indexed exactly like
  /// `items`; a failed fit yields its per-server error status in place.
  /// `pool == nullptr` runs sequentially (same results either way).
  /// Families without a batched core (SSA, ARIMA, heuristics, custom
  /// registrations) fall back to plain per-item `Fit` under the same
  /// fan-out, so callers need not special-case by family.
  static Result<std::vector<BatchTrainResult>> Fit(
      const std::string& model_name, const std::vector<BatchTrainItem>& items,
      ThreadPool* pool, BatchTrainStats* stats = nullptr);

 private:
  // Group fitters (batch.cc); members so the friend grants of the
  // model classes cover them.
  static void FitAdditiveGroup(const std::string& name,
                               const std::vector<BatchTrainItem>& items,
                               const std::vector<int64_t>& members,
                               ThreadPool* pool,
                               std::vector<BatchTrainResult>* results);
  static void FitFeedForwardGroup(const std::string& name,
                                  const std::vector<BatchTrainItem>& items,
                                  const std::vector<int64_t>& members,
                                  ThreadPool* pool,
                                  std::vector<BatchTrainResult>* results);
};

}  // namespace seagull
