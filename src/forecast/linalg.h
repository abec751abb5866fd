/// \file linalg.h
/// \brief Dense linear-algebra kernel engine for the forecast models.
///
/// SSA needs the eigendecomposition of its lag-covariance Gram; the
/// additive model needs the Gram and right-hand side of its design
/// matrix; the feed-forward network needs batched matrix products.
/// Per-server model fitting runs tens of thousands of times per
/// pipeline pass, so these kernels are the compute floor of the whole
/// training fan-out. Each kernel has exactly one implementation; the
/// textbook loops it is checked against live in the test-only
/// tests/reference/linalg_reference.h.
///
/// Layout contract: `Matrix` is guaranteed-contiguous row-major doubles
/// (one flat allocation, row `r` starting at `Row(r)`), so kernels walk
/// raw pointers instead of going through bounds arithmetic per element.
///
/// Determinism contract: every kernel reduces in one fixed order that
/// does not depend on thread count, scheduling, or input values — the
/// fleet engine's byte-identical `--jobs 1` vs `--jobs N` guarantee
/// (tests/fleet_determinism_test.cc) extends through every trained
/// model. See DESIGN.md §"Forecast kernel engine".

#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace seagull {

/// \brief Row-major dense matrix of doubles in one contiguous
/// allocation.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {}

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  /// Raw pointer to the start of row `r` — rows are contiguous and
  /// consecutive, so `Row(0)` addresses the whole matrix.
  double* Row(int64_t r) { return data_.data() + r * cols_; }
  const double* Row(int64_t r) const { return data_.data() + r * cols_; }

  double& At(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  double At(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Reshapes to rows×cols and zero-fills. Keeps the existing heap
  /// allocation when capacity suffices — the scratch-arena reuse path.
  void Resize(int64_t rows, int64_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows * cols), 0.0);
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double> data_;
};

/// C = AᵀA (SYRK-style: walks rows of A contiguously and fills the
/// upper triangle, then mirrors) — the additive model's design Gram.
Matrix AtA(const Matrix& a);

/// y = Aᵀ b — the normal-equations right-hand side, accumulated row by
/// row so A is read contiguously exactly once.
std::vector<double> TransposeMatVec(const Matrix& a,
                                    const std::vector<double>& b);

/// C = A · Bᵀ where `b` points at `b_rows` contiguous rows of
/// `a.cols()` doubles (a row-major b_rows×a.cols() block). Every output
/// element is one 4-lane `Dot` of two contiguous rows — the natural
/// layout for the feed-forward forward pass, whose weight matrices are
/// stored row-major per output unit. `out` is resized (scratch-arena
/// friendly).
void MatMulNT(const Matrix& a, const double* b, int64_t b_rows,
              Matrix* out);

/// C = A · B where `b` points at a row-major a.cols()×b_cols block
/// (operands living in flat parameter vectors). i-k-j kernel with a
/// 4-wide unrolled row update; every output element accumulates in
/// ascending-k order.
void MatMulNN(const Matrix& a, const double* b, int64_t b_cols,
              Matrix* out);

/// C = Aᵀ · B for equal-row-count operands (a: m×p, b: m×q → p×q),
/// accumulated row pair by row pair so both inputs stream contiguously
/// exactly once — the gradient contraction of batched training
/// (gW = activationsᵀ · deltas). Every output element accumulates in
/// ascending row order.
void MatMulTN(const Matrix& a, const Matrix& b, Matrix* out);

/// Dot product over equal-length vectors (4 fixed lanes, deterministic
/// combine). Checked precondition: aborts if the sizes differ — the old
/// behaviour of silently truncating to the shorter vector hid shape
/// bugs.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Raw-pointer dot over `n` doubles, same fixed 4-lane reduction.
double Dot(const double* a, const double* b, int64_t n);

/// y = S·x for a square, bitwise-symmetric `s` (every Gram `AtA` and
/// `BuildLagGram` build is one: they mirror their upper triangle).
/// `y[r]` equals `Dot(s.Row(r), x, n)` bit for bit. On an AVX2 host,
/// eight rows at a time accumulate as vertical sums over the columns
/// of S (column c of S is row c, by symmetry), lane for lane in
/// `Dot`'s order and without FMA; the remaining rows, and every row on
/// other hosts, go through `Dot` itself. The choice is made once per
/// process and changes no bit.
void SymMatVec(const Matrix& s, const double* x, double* y);

/// \brief Builds the L×L lag-covariance Gram C = AᵀA of the Hankel
/// trajectory matrix A[i][j] = x[i+j] (i in [0, n-L], j in [0, L)).
///
/// Exploits the Hankel structure: C[a][b] depends only on the lag
/// d = b−a and the offset a, so one prefix-sum pass over the products
/// x[t]·x[t+d] per lag yields a whole diagonal — O(n·L) total instead
/// of the O((n−L)·L²) materialized product. `out` is resized to L×L
/// (scratch-arena friendly).
void BuildLagGram(const double* x, int64_t n, int64_t L, Matrix* out);

/// Eigendecomposition A = V diag(λ) Vᵀ of the symmetric n×n `*a`, with
/// eigenvalues in non-increasing order: Householder tridiagonalization
/// followed by implicit-shift QL. Consumes `*a` (overwritten), resizes
/// `*vectors` to n×n (column j is the j-th eigenvector) and `*values`
/// to n. The rotation accumulator lives in the calling thread's scratch
/// arena, so passing scratch-owned outputs makes the whole
/// decomposition heap-allocation-free at steady state — SSA, which only
/// needs the lag-space singular vectors (the eigenvectors of AᵀA), runs
/// it once per fit.
Status SymmetricEigenInPlace(Matrix* a, Matrix* vectors,
                             std::vector<double>* values);

}  // namespace seagull
