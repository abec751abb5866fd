/// \file linalg_reference.h
/// \brief Test-only oracles for the forecast kernel engine.
///
/// `src/forecast/linalg` keeps exactly one implementation per kernel.
/// The code here is what those kernels are checked against: straight
/// triple-loop products that accumulate every output element in
/// ascending-k order, and a cyclic Jacobi eigensolver — an algorithm
/// independent of the library's Householder + QL solver — for its
/// spectrum. It favours obviousness over speed and is never linked into
/// the library.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/result.h"
#include "forecast/linalg.h"

namespace seagull::reference {

/// C = A·B, each element summed from 0.0 in ascending-k order — the
/// order MatMulNN and MatMulTN keep, so they must match it exactly.
inline Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) s += a.At(i, k) * b.At(k, j);
      c.At(i, j) = s;
    }
  }
  return c;
}

/// Aᵀ.
inline Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) t.At(j, i) = a.At(i, j);
  }
  return t;
}

/// Single-accumulator dot product.
inline double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// \brief Eigenpairs of a symmetric matrix: column j of `vectors` is
/// the eigenvector of `values[j]`, values in non-increasing order.
struct EigenPairs {
  Matrix vectors;
  std::vector<double> values;
};

/// Runs the library's SymmetricEigenInPlace on a copy of `a`.
inline Result<EigenPairs> Eigen(Matrix a) {
  EigenPairs out;
  SEAGULL_RETURN_NOT_OK(SymmetricEigenInPlace(&a, &out.vectors, &out.values));
  return out;
}

/// Cyclic Jacobi eigendecomposition of the symmetric matrix `a` with
/// absolute cutoffs: a sweep starts only while the off-diagonal
/// Frobenius mass exceeds 1e-20, and rotations skip entries below
/// 1e-18. Converges in ~9 O(n³) sweeps on load-scale Grams.
inline EigenPairs JacobiEigen(Matrix a, int max_sweeps = 100) {
  const int64_t n = a.rows();
  // Row j of `vt` holds eigenvector j.
  Matrix vt(n, n);
  for (int64_t i = 0; i < n; ++i) vt.At(i, i) = 1.0;
  auto rotate = [](double* x, double* y, int64_t len, double c, double s) {
    for (int64_t k = 0; k < len; ++k) {
      const double xk = x[k], yk = y[k];
      x[k] = c * xk - s * yk;
      y[k] = s * xk + c * yk;
    }
  };
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) off += a.At(i, j) * a.At(i, j);
    }
    if (off <= 1e-20) break;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        const double apq = a.At(p, q);
        if (std::fabs(apq) < 1e-18) continue;
        const double tau = (a.At(q, q) - a.At(p, p)) / (2.0 * apq);
        const double t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // A ← JᵀAJ: the column update, then the two row updates.
        for (int64_t k = 0; k < n; ++k) {
          const double akp = a.At(k, p), akq = a.At(k, q);
          a.At(k, p) = c * akp - s * akq;
          a.At(k, q) = s * akp + c * akq;
        }
        rotate(a.Row(p), a.Row(q), n, c, s);
        rotate(vt.Row(p), vt.Row(q), n, c, s);
      }
    }
  }
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return a.At(x, x) > a.At(y, y);
  });
  EigenPairs out;
  out.vectors = Matrix(n, n);
  out.values.resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    const int64_t src = order[static_cast<size_t>(j)];
    out.values[static_cast<size_t>(j)] = a.At(src, src);
    for (int64_t r = 0; r < n; ++r) out.vectors.At(r, j) = vt.At(src, r);
  }
  return out;
}

}  // namespace seagull::reference
