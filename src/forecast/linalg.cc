#include "forecast/linalg.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "forecast/scratch.h"

namespace seagull {

Matrix AtA(const Matrix& a) {
  const int64_t m = a.rows(), n = a.cols();
  Matrix c(n, n);
  // SYRK-style rank-1 accumulation: each row of A is read contiguously
  // exactly once and updates the upper triangle.
  for (int64_t r = 0; r < m; ++r) {
    const double* ar = a.Row(r);
    for (int64_t i = 0; i < n; ++i) {
      const double v = ar[i];
      if (v == 0.0) continue;
      double* ci = c.Row(i);
      int64_t j = i;
      for (; j + 4 <= n; j += 4) {
        ci[j] += v * ar[j];
        ci[j + 1] += v * ar[j + 1];
        ci[j + 2] += v * ar[j + 2];
        ci[j + 3] += v * ar[j + 3];
      }
      for (; j < n; ++j) ci[j] += v * ar[j];
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < i; ++j) c.At(i, j) = c.At(j, i);
  }
  return c;
}

std::vector<double> TransposeMatVec(const Matrix& a,
                                    const std::vector<double>& b) {
  const int64_t m = a.rows(), n = a.cols();
  std::vector<double> y(static_cast<size_t>(n), 0.0);
  // Row-by-row axpy: A is streamed contiguously once.
  for (int64_t r = 0; r < m; ++r) {
    const double br = b[static_cast<size_t>(r)];
    if (br == 0.0) continue;
    const double* ar = a.Row(r);
    double* yp = y.data();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      yp[i] += br * ar[i];
      yp[i + 1] += br * ar[i + 1];
      yp[i + 2] += br * ar[i + 2];
      yp[i + 3] += br * ar[i + 3];
    }
    for (; i < n; ++i) yp[i] += br * ar[i];
  }
  return y;
}

void MatMulNT(const Matrix& a, const double* b, int64_t b_rows,
              Matrix* out) {
  const int64_t m = a.rows(), kk = a.cols();
  out->Resize(m, b_rows);
  // Each element is a contiguous-row dot; the 4-lane Dot keeps the
  // reduction order fixed per length.
  for (int64_t i = 0; i < m; ++i) {
    const double* ai = a.Row(i);
    double* ci = out->Row(i);
    for (int64_t j = 0; j < b_rows; ++j) {
      ci[j] = Dot(ai, b + j * kk, kk);
    }
  }
}

void MatMulNN(const Matrix& a, const double* b, int64_t b_cols,
              Matrix* out) {
  const int64_t m = a.rows(), kk = a.cols();
  out->Resize(m, b_cols);
  // i-k-j: ascending-k contributions per element.
  for (int64_t i = 0; i < m; ++i) {
    const double* ai = a.Row(i);
    double* ci = out->Row(i);
    for (int64_t k = 0; k < kk; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b + k * b_cols;
      int64_t j = 0;
      for (; j + 4 <= b_cols; j += 4) {
        ci[j] += aik * bk[j];
        ci[j + 1] += aik * bk[j + 1];
        ci[j + 2] += aik * bk[j + 2];
        ci[j + 3] += aik * bk[j + 3];
      }
      for (; j < b_cols; ++j) ci[j] += aik * bk[j];
    }
  }
}

void MatMulTN(const Matrix& a, const Matrix& b, Matrix* out) {
  const int64_t m = a.rows(), p = a.cols(), q = b.cols();
  out->Resize(p, q);
  // Rank-1 row-pair accumulation: both inputs stream contiguously once;
  // every output element still sums in ascending sample order.
  for (int64_t r = 0; r < m; ++r) {
    const double* ar = a.Row(r);
    const double* br = b.Row(r);
    for (int64_t i = 0; i < p; ++i) {
      const double v = ar[i];
      if (v == 0.0) continue;
      double* ci = out->Row(i);
      int64_t j = 0;
      for (; j + 4 <= q; j += 4) {
        ci[j] += v * br[j];
        ci[j + 1] += v * br[j + 1];
        ci[j + 2] += v * br[j + 2];
        ci[j + 3] += v * br[j + 3];
      }
      for (; j < q; ++j) ci[j] += v * br[j];
    }
  }
}

double Dot(const double* a, const double* b, int64_t n) {
  // Four fixed lanes with a fixed combine order: deterministic for a
  // given length regardless of caller or thread.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * b[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

#if defined(__x86_64__)
namespace {

/// Rows [0, n - n % 8) of y = S·x for a symmetric S, eight rows per
/// block. For row r, `Dot(s.Row(r), x, n)` keeps lane l = c % 4 of the
/// products s[r][c]·x[c] in ascending c, the columns past the last
/// multiple of 4 in a tail sum from zero, and combines
/// ((l0 + l1) + (l2 + l3)) + tail. Since s[r][c] == s[c][r], the
/// block's eight lane-l sums are vertical sums over rows c of S, two
/// 4-wide registers per lane; separate multiplies and adds (never FMA)
/// round exactly as `Dot` does.
__attribute__((target("avx2"))) void SymMatVecBlocksAvx2(const Matrix& s,
                                                         const double* x,
                                                         double* y) {
  const int64_t n = s.rows();
  const int64_t body = n - n % 4;
  for (int64_t r0 = 0; r0 + 8 <= n; r0 += 8) {
    __m256d lo0 = _mm256_setzero_pd(), hi0 = lo0, lo1 = lo0, hi1 = lo0;
    __m256d lo2 = lo0, hi2 = lo0, lo3 = lo0, hi3 = lo0;
    const double* col = s.Row(0) + r0;  // s[c][r0..r0+7] == s[r0..r0+7][c]
    int64_t c = 0;
    for (; c < body; c += 4, col += 4 * n) {
      const double* c1 = col + n;
      const double* c2 = c1 + n;
      const double* c3 = c2 + n;
      const __m256d x0 = _mm256_set1_pd(x[c]);
      const __m256d x1 = _mm256_set1_pd(x[c + 1]);
      const __m256d x2 = _mm256_set1_pd(x[c + 2]);
      const __m256d x3 = _mm256_set1_pd(x[c + 3]);
      lo0 = _mm256_add_pd(lo0, _mm256_mul_pd(_mm256_loadu_pd(col), x0));
      hi0 = _mm256_add_pd(hi0, _mm256_mul_pd(_mm256_loadu_pd(col + 4), x0));
      lo1 = _mm256_add_pd(lo1, _mm256_mul_pd(_mm256_loadu_pd(c1), x1));
      hi1 = _mm256_add_pd(hi1, _mm256_mul_pd(_mm256_loadu_pd(c1 + 4), x1));
      lo2 = _mm256_add_pd(lo2, _mm256_mul_pd(_mm256_loadu_pd(c2), x2));
      hi2 = _mm256_add_pd(hi2, _mm256_mul_pd(_mm256_loadu_pd(c2 + 4), x2));
      lo3 = _mm256_add_pd(lo3, _mm256_mul_pd(_mm256_loadu_pd(c3), x3));
      hi3 = _mm256_add_pd(hi3, _mm256_mul_pd(_mm256_loadu_pd(c3 + 4), x3));
    }
    __m256d tlo = _mm256_setzero_pd(), thi = tlo;
    for (; c < n; ++c, col += n) {
      const __m256d xc = _mm256_set1_pd(x[c]);
      tlo = _mm256_add_pd(tlo, _mm256_mul_pd(_mm256_loadu_pd(col), xc));
      thi = _mm256_add_pd(thi, _mm256_mul_pd(_mm256_loadu_pd(col + 4), xc));
    }
    _mm256_storeu_pd(
        y + r0, _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(lo0, lo1),
                                            _mm256_add_pd(lo2, lo3)),
                              tlo));
    _mm256_storeu_pd(
        y + r0 + 4, _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(hi0, hi1),
                                                _mm256_add_pd(hi2, hi3)),
                                  thi));
  }
  _mm256_zeroupper();
}

}  // namespace
#endif

void SymMatVec(const Matrix& s, const double* x, double* y) {
  const int64_t n = s.rows();
  int64_t r = 0;
#if defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  if (avx2) {
    SymMatVecBlocksAvx2(s, x, y);
    r = n - n % 8;
  }
#endif
  for (; r < n; ++r) y[r] = Dot(s.Row(r), x, n);
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    // Checked precondition: the old behaviour silently truncated to the
    // shorter vector, which turns shape bugs into quiet wrong answers.
    SEAGULL_LOG_ERROR("Dot() shape mismatch: %zu vs %zu elements",
                      a.size(), b.size());
    std::abort();
  }
  return Dot(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

void BuildLagGram(const double* x, int64_t n, int64_t L, Matrix* out) {
  out->Resize(L, L);
  const int64_t k = n - L + 1;
  // Hankel structure: C[a][a+d] = Σ_{t=a}^{a+k-1} x[t]·x[t+d] — one
  // prefix-sum pass over the lag-d products yields the whole d-th
  // diagonal, O(n·L) overall.
  std::vector<double>& prefix = KernelScratch::Local().Vec(
      kscratch::kLinalgGramPrefix, static_cast<size_t>(n) + 1);
  for (int64_t d = 0; d < L; ++d) {
    const int64_t products = n - d;
    prefix[0] = 0.0;
    double acc = 0.0;
    for (int64_t t = 0; t < products; ++t) {
      acc += x[t] * x[t + d];
      prefix[static_cast<size_t>(t) + 1] = acc;
    }
    for (int64_t a = 0; a + d < L; ++a) {
      out->At(a, a + d) =
          prefix[static_cast<size_t>(a + k)] - prefix[static_cast<size_t>(a)];
    }
  }
  for (int64_t a = 0; a < L; ++a) {
    for (int64_t b = 0; b < a; ++b) out->At(a, b) = out->At(b, a);
  }
}

namespace {

/// Householder reduction of the symmetric n×n matrix `a` to tridiagonal
/// form (tred2): on return `d` holds the diagonal, `e[1..n-1]` the
/// sub-diagonal, and `a` is overwritten with the accumulated orthogonal
/// transform Q (column k is the k-th basis vector of the tridiagonal
/// frame).
void HouseholderTridiag(Matrix& a, int64_t n, double* d, double* e) {
  for (int64_t i = n - 1; i >= 1; --i) {
    const int64_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (int64_t k = 0; k <= l; ++k) scale += std::fabs(a.At(i, k));
      if (scale == 0.0) {
        e[i] = a.At(i, l);
      } else {
        for (int64_t k = 0; k <= l; ++k) {
          a.At(i, k) /= scale;
          h += a.At(i, k) * a.At(i, k);
        }
        double f = a.At(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a.At(i, l) = f - g;
        f = 0.0;
        for (int64_t j = 0; j <= l; ++j) {
          a.At(j, i) = a.At(i, j) / h;
          g = 0.0;
          for (int64_t k = 0; k <= j; ++k) g += a.At(j, k) * a.At(i, k);
          for (int64_t k = j + 1; k <= l; ++k) g += a.At(k, j) * a.At(i, k);
          e[j] = g / h;
          f += e[j] * a.At(i, j);
        }
        const double hh = f / (h + h);
        for (int64_t j = 0; j <= l; ++j) {
          f = a.At(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (int64_t k = 0; k <= j; ++k) {
            a.At(j, k) -= f * e[k] + g * a.At(i, k);
          }
        }
      }
    } else {
      e[i] = a.At(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the transform (d[i] still holds the Householder h as the
  // "was a reflection applied at step i" flag).
  for (int64_t i = 0; i < n; ++i) {
    const int64_t l = i - 1;
    if (d[i] != 0.0) {
      for (int64_t j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int64_t k = 0; k <= l; ++k) g += a.At(i, k) * a.At(k, j);
        for (int64_t k = 0; k <= l; ++k) a.At(k, j) -= g * a.At(k, i);
      }
    }
    d[i] = a.At(i, i);
    a.At(i, i) = 1.0;
    for (int64_t j = 0; j <= l; ++j) {
      a.At(j, i) = 0.0;
      a.At(i, j) = 0.0;
    }
  }
}

/// Implicit-shift QL iteration on the tridiagonal (d, e) produced by
/// HouseholderTridiag (tqli). `zt` carries the transform transposed —
/// row k is eigenvector k — so each Givens rotation updates two
/// contiguous rows. Returns false if an eigenvalue fails to converge.
bool TridiagQl(double* d, double* e, int64_t n, Matrix& zt) {
  for (int64_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (int64_t l = 0; l < n; ++l) {
    int iter = 0;
    int64_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (iter++ == 60) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? r : -r));
        double s = 1.0, c = 1.0, p = 0.0;
        int64_t i = m - 1;
        for (; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Negligible rotation: deflate and restart the chase.
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          double* zi = zt.Row(i);
          double* zi1 = zt.Row(i + 1);
          for (int64_t k = 0; k < n; ++k) {
            f = zi1[k];
            zi1[k] = s * zi[k] + c * f;
            zi[k] = c * zi[k] - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

/// Sorts eigenpairs descending by eigenvalue and writes the caller's
/// outputs (column j of `*vectors` = eigenvector j, taken from row j of
/// `vt`). `d` aliases `values`' storage, so `work` stages the unsorted
/// eigenvalues during the permutation.
Status SortEigenPairs(const double* d, const Matrix& vt, int64_t n,
                      std::vector<double>& work, Matrix* vectors,
                      std::vector<double>* values) {
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int64_t x, int64_t y) { return d[x] > d[y]; });
  for (int64_t i = 0; i < n; ++i) work[static_cast<size_t>(i)] = d[i];
  vectors->Resize(n, n);
  for (int64_t j = 0; j < n; ++j) {
    const int64_t src = order[static_cast<size_t>(j)];
    (*values)[static_cast<size_t>(j)] = work[static_cast<size_t>(src)];
    const double* vj = vt.Row(src);
    for (int64_t r = 0; r < n; ++r) {
      vectors->At(r, j) = vj[r];
    }
  }
  return Status::OK();
}

}  // namespace

Status SymmetricEigenInPlace(Matrix* a_ptr, Matrix* vectors,
                             std::vector<double>* values) {
  Matrix& a = *a_ptr;
  const int64_t n = a.rows();
  if (a.cols() != n) return Status::Invalid("matrix is not square");
  KernelScratch& scratch = KernelScratch::Local();
  // Row j of `vt` holds eigenvector j, so every rotation updates two
  // contiguous rows. The accumulator is linalg's own scratch slot —
  // callers passing scratch-owned outputs get a zero-alloc solve.
  Matrix& vt = scratch.Mat(kscratch::kMatLinalgEigenVt, n, n);
  values->resize(static_cast<size_t>(n));
  double* d = values->data();
  std::vector<double>& work =
      scratch.Vec(kscratch::kLinalgEigenOff, static_cast<size_t>(n));

  HouseholderTridiag(a, n, d, work.data());
  // The accumulated transform sits column-wise in `a`; transpose into
  // `vt` so the QL rotations walk contiguous rows.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) vt.At(j, i) = a.At(i, j);
  }
  if (!TridiagQl(d, work.data(), n, vt)) {
    return Status::Internal("QL eigensolver failed to converge");
  }
  return SortEigenPairs(d, vt, n, work, vectors, values);
}

}  // namespace seagull
