/// \file scratch.h
/// \brief Thread-local scratch arena for the forecast kernel engine.
///
/// The training module fans one `Fit()` per server out across the
/// thread pool; before this arena existed every fit re-allocated its
/// trajectory buffers, Gram matrix, residual workspace, and gradient
/// accumulators from the heap — at fleet scale that allocation churn,
/// not arithmetic, dominated the profile. `KernelScratch::Local()`
/// returns one arena per thread whose buffers keep their capacity
/// between fits, so a pool worker sweeping thousands of servers
/// allocates each buffer once and then only ever re-slices it.
///
/// Lifetime rules (see DESIGN.md §"Forecast kernel engine"):
///  - A slot's contents are valid only between acquiring it and the
///    next acquisition of the same slot on the same thread. Buffers
///    never escape: anything a model keeps (coefficients, weights) is
///    copied/moved into the model's own members.
///  - Slots are keyed by the constants below; each consumer owns a
///    disjoint range, so nested use (a model fit calling a linalg
///    kernel) cannot alias.
///  - `Fit()` runs on exactly one thread per model instance (model.h
///    contract) and const `Forecast()` paths only touch their own
///    thread's arena, so no synchronization is needed — and, because
///    the arena only recycles storage, it cannot affect results: byte
///    determinism across `--jobs` is preserved by construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "forecast/linalg.h"

namespace seagull {

/// Slot keys. Each consumer gets its own block; keep ranges disjoint.
namespace kscratch {
// linalg-internal workspace
inline constexpr int kLinalgGramPrefix = 0;
inline constexpr int kLinalgEigenOff = 1;
// SSA
inline constexpr int kSsaSeries = 4;
inline constexpr int kSsaWindow = 5;
inline constexpr int kSsaEigVals = 6;
// ARIMA
inline constexpr int kArimaSeries = 8;
inline constexpr int kArimaDiff = 9;
inline constexpr int kArimaResiduals = 10;
inline constexpr int kArimaSens = 11;       // rolling ∂e/∂θ window
// Feed-forward network
inline constexpr int kFfGradB1 = 13;
inline constexpr int kFfGradB2 = 15;
inline constexpr int kFfAdamM = 16;
inline constexpr int kFfAdamV = 17;
inline constexpr int kFfActivations = 18;
inline constexpr int kFfParams = 19;        // concatenated [w1|b1|w2|b2]
// ARIMA (optimizer state)
inline constexpr int kArimaGrad = 20;
inline constexpr int kArimaAdam = 21;       // [m | v], 2·np doubles
// Additive model
inline constexpr int kAddTargets = 22;
inline constexpr int kAddGrad = 23;
inline constexpr int kAddFeatures = 24;
inline constexpr int kAddRhs = 25;          // b = Aᵀy
inline constexpr int kAddGramCoef = 26;     // G·coef per iteration
// Matrix slots
inline constexpr int kMatSsaGram = 0;
inline constexpr int kMatFfInputs = 1;
inline constexpr int kMatFfTargets = 2;
inline constexpr int kMatSsaEigVec = 4;
inline constexpr int kMatLinalgEigenVt = 5;
inline constexpr int kMatFfHidden = 7;      // batched pre-activations
inline constexpr int kMatFfOut = 8;         // batched outputs / deltas
inline constexpr int kMatFfDh = 9;          // batched hidden deltas
inline constexpr int kMatFfRelu = 10;       // batched ReLU activations
inline constexpr int kMatFfGradW1 = 11;     // gW1 = dHᵀ·X (row-major w1)
inline constexpr int kMatFfGradW2 = 12;     // gW2 = dYᵀ·H (row-major w2)
}  // namespace kscratch

/// \brief Per-thread pool of capacity-retaining buffers.
class KernelScratch {
 public:
  static constexpr int kVecSlots = 28;
  static constexpr int kMatSlots = 14;

  /// The calling thread's arena.
  static KernelScratch& Local();

  /// Returns slot `slot` resized to `n` elements. Contents are
  /// unspecified (whatever the previous use left behind) — use only
  /// when every element is written before being read.
  std::vector<double>& Vec(int slot, size_t n);

  /// Returns slot `slot` holding `n` zeros.
  std::vector<double>& VecZero(int slot, size_t n);

  /// Returns matrix slot `slot` resized to rows×cols and zero-filled.
  Matrix& Mat(int slot, int64_t rows, int64_t cols);

  /// Total bytes currently retained across all slots (introspection for
  /// tests; the arena never shrinks on its own).
  size_t RetainedBytes() const;

  /// Drops every buffer back to zero capacity.
  void Release();

 private:
  std::vector<double> vecs_[kVecSlots];
  Matrix mats_[kMatSlots];
};

}  // namespace seagull
