/// \file forecast_linalg_kernel_test.cc
/// \brief Property tests for the forecast kernel engine: every kernel
/// is cross-checked on randomized inputs against the textbook loops in
/// tests/reference/linalg_reference.h, and the invariants that hold for
/// any correct implementation (orthogonality, reconstruction,
/// determinism, layout) are asserted directly. The determinism contract
/// (DESIGN.md §"Forecast kernel engine") is: every kernel is bit-stable
/// run to run; kernels that keep the textbook ascending-k accumulation
/// order (MatMulNN, MatMulTN) match the reference bit-for-bit;
/// SymMatVec matches `Dot` row by row bit-for-bit on the symmetric
/// Grams AtA builds; the rest (Dot, MatMulNT, AtA, TransposeMatVec,
/// BuildLagGram, SymmetricEigenInPlace) agree to far tighter than
/// forecast-relevant tolerances.

#include "forecast/linalg.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "reference/linalg_reference.h"

namespace seagull {
namespace {

Matrix RandomMatrix(Rng* rng, int64_t rows, int64_t cols) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) m.At(i, j) = rng->Gaussian(0.0, 1.0);
  }
  return m;
}

std::vector<double> RandomVector(Rng* rng, int64_t n) {
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng->Gaussian(0.0, 1.0);
  return v;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::fabs(a.At(i, j) - b.At(i, j)));
    }
  }
  return worst;
}

TEST(KernelMatrixTest, RowPointersAreContiguous) {
  Matrix m(5, 7);
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_EQ(m.Row(r), m.Row(0) + r * 7) << "row " << r;
  }
  // Resize within capacity must keep the allocation and zero-fill: the
  // feed-forward epoch loop reshapes its batch matrices in place.
  const double* before = m.Row(0);
  m.Resize(4, 6);
  EXPECT_EQ(m.Row(0), before);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 6; ++c) EXPECT_EQ(m.At(r, c), 0.0);
  }
}

/// Odd shapes with every 4-lane remainder (0..3) in the reduction and
/// output dimensions, plus the feed-forward trainer's own shapes
/// (batch 32 / tail 9, pooled 24, hidden 32). Each test reuses one
/// output matrix across the list, as the trainer reuses its product
/// matrices across batches, so a smaller product must fully overwrite
/// a larger one.
const int64_t kMatMulShapes[][3] = {{1, 1, 1},  {3, 5, 4},   {2, 7, 6},
                                    {5, 9, 11}, {17, 33, 9}, {32, 24, 32},
                                    {9, 32, 24}, {13, 70, 65}};

TEST(KernelCrossCheckTest, MatMulNNMatchesReferenceExactly) {
  Rng rng(111);
  Matrix out;
  for (const auto& s : kMatMulShapes) {
    Matrix a = RandomMatrix(&rng, s[0], s[1]);
    Matrix b = RandomMatrix(&rng, s[1], s[2]);
    MatMulNN(a, b.Row(0), b.cols(), &out);
    // Ascending-k accumulation in both -> exactly equal, not just close.
    EXPECT_EQ(MaxAbsDiff(out, reference::MatMul(a, b)), 0.0)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(KernelCrossCheckTest, MatMulTNMatchesReferenceExactly) {
  Rng rng(112);
  Matrix out;
  for (const auto& s : kMatMulShapes) {
    // a: m×p, b: m×q -> aᵀb: p×q, summed over the m shared rows.
    Matrix a = RandomMatrix(&rng, s[1], s[0]);
    Matrix b = RandomMatrix(&rng, s[1], s[2]);
    MatMulTN(a, b, &out);
    EXPECT_EQ(MaxAbsDiff(out, reference::MatMul(reference::Transpose(a), b)),
              0.0)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(KernelCrossCheckTest, MatMulNTMatchesReferenceWithinTolerance) {
  Rng rng(113);
  Matrix out;
  for (const auto& s : kMatMulShapes) {
    // b holds s[2] rows of s[1] doubles; the product is a·bᵀ.
    Matrix a = RandomMatrix(&rng, s[0], s[1]);
    Matrix b = RandomMatrix(&rng, s[2], s[1]);
    MatMulNT(a, b.Row(0), b.rows(), &out);
    const Matrix want = reference::MatMul(a, reference::Transpose(b));
    ASSERT_EQ(out.rows(), want.rows());
    ASSERT_EQ(out.cols(), want.cols());
    // Each element sums through the 4-lane Dot, which associates
    // differently from the single accumulator.
    for (int64_t i = 0; i < want.rows(); ++i) {
      for (int64_t j = 0; j < want.cols(); ++j) {
        EXPECT_NEAR(out.At(i, j), want.At(i, j),
                    1e-9 * (1.0 + std::fabs(want.At(i, j))))
            << s[0] << "x" << s[1] << "x" << s[2] << " at " << i << "," << j;
      }
    }
  }
}

TEST(KernelCrossCheckTest, SyrkAtAMatchesReferenceWithinTolerance) {
  Rng rng(102);
  for (int64_t cols : {3, 24, 61}) {
    Matrix a = RandomMatrix(&rng, 211, cols);
    const Matrix want = reference::MatMul(reference::Transpose(a), a);
    EXPECT_LT(MaxAbsDiff(AtA(a), want), 1e-9) << "cols=" << cols;
  }
}

TEST(KernelCrossCheckTest, TransposeMatVecMatchesReference) {
  Rng rng(103);
  Matrix a = RandomMatrix(&rng, 187, 29);
  std::vector<double> b = RandomVector(&rng, 187);
  std::vector<double> fast = TransposeMatVec(a, b);
  Matrix bm(187, 1);
  for (int64_t r = 0; r < 187; ++r) bm.At(r, 0) = b[static_cast<size_t>(r)];
  const Matrix want = reference::MatMul(reference::Transpose(a), bm);
  ASSERT_EQ(static_cast<int64_t>(fast.size()), want.rows());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], want.At(static_cast<int64_t>(i), 0), 1e-9) << i;
  }
}

TEST(KernelCrossCheckTest, UnrolledDotMatchesReference) {
  Rng rng(104);
  for (int64_t n : {0, 1, 3, 4, 7, 1024, 4097}) {
    std::vector<double> a = RandomVector(&rng, n);
    std::vector<double> b = RandomVector(&rng, n);
    const double fast = Dot(a, b);
    const double fast_raw = Dot(a.data(), b.data(), n);
    EXPECT_EQ(fast, fast_raw) << n;
    const double want = reference::Dot(a, b);
    EXPECT_NEAR(fast, want, 1e-9 * (1.0 + std::fabs(want))) << n;
  }
}

TEST(KernelCrossCheckTest, DotShapeMismatchAborts) {
  std::vector<double> a(4, 1.0), b(5, 1.0);
  EXPECT_DEATH(Dot(a, b), "shape mismatch");
}

/// An AtA Gram of a random n-column design whose columns span six
/// orders of magnitude and hold exact zeros (AtA skips those), so the
/// Gram's entries differ widely in size.
Matrix DesignGram(Rng* rng, int64_t n) {
  Matrix a = RandomMatrix(rng, 3 * n + 5, n);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const double scale = std::pow(10.0, static_cast<double>(j % 7 - 3));
      a.At(i, j) = (i + j) % 5 == 0 ? 0.0 : a.At(i, j) * scale;
    }
  }
  return AtA(a);
}

TEST(KernelCrossCheckTest, AtAIsBitwiseSymmetric) {
  // SymMatVec reads column c of a Gram as its row c; that is exact only
  // while AtA mirrors its upper triangle bit for bit.
  Rng rng(114);
  for (int64_t n = 1; n <= 40; ++n) {
    const Matrix s = DesignGram(&rng, n);
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < r; ++c) {
        const double lower = s.At(r, c), upper = s.At(c, r);
        EXPECT_EQ(std::memcmp(&lower, &upper, sizeof(double)), 0)
            << "n=" << n << " at " << r << "," << c;
      }
    }
  }
}

TEST(KernelCrossCheckTest, SymMatVecMatchesDotPerRow) {
  // Every n mod 8 (full 8-row blocks and the rows left after them),
  // n < 8 (no block at all) and the additive model's p = 34. One x is
  // Gaussian; the other mixes ±0.0, subnormals and values near 1e300
  // whose products cancel within and across lanes, so any change to
  // the lane order or the combine moves a bit.
  Rng rng(115);
  const double kSpecial[] = {0.0,    -0.0, 1e-310,  -5e-324, 1e290,
                             -3e289, 1.0,  -1e-300, 7e289,   -0.0};
  for (int64_t n = 1; n <= 40; ++n) {
    const Matrix s = DesignGram(&rng, n);
    std::vector<double> gaussian = RandomVector(&rng, n);
    std::vector<double> special = RandomVector(&rng, n);
    for (int64_t c = 0; c < n; c += 2) {
      special[static_cast<size_t>(c)] = kSpecial[(c / 2) % 10];
    }
    for (const std::vector<double>* x : {&gaussian, &special}) {
      std::vector<double> y(static_cast<size_t>(n),
                            std::numeric_limits<double>::quiet_NaN());
      SymMatVec(s, x->data(), y.data());
      for (int64_t r = 0; r < n; ++r) {
        const double want = Dot(s.Row(r), x->data(), n);
        ASSERT_TRUE(std::isfinite(want)) << "n=" << n << " row " << r;
        EXPECT_EQ(std::memcmp(&y[static_cast<size_t>(r)], &want,
                              sizeof(double)),
                  0)
            << "n=" << n << " row " << r << ": " << y[static_cast<size_t>(r)]
            << " vs Dot " << want;
      }
    }
  }
}

TEST(KernelCrossCheckTest, LagGramMatchesExplicitHankelProduct) {
  Rng rng(105);
  const int64_t n = 500, L = 37;
  std::vector<double> x = RandomVector(&rng, n);

  Matrix fast;
  BuildLagGram(x.data(), n, L, &fast);
  ASSERT_EQ(fast.rows(), L);
  ASSERT_EQ(fast.cols(), L);

  // Reference: materialize the Hankel trajectory matrix and multiply.
  const int64_t k = n - L + 1;
  Matrix traj(k, L);
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < L; ++j) {
      traj.At(i, j) = x[static_cast<size_t>(i + j)];
    }
  }
  const Matrix want = reference::MatMul(reference::Transpose(traj), traj);

  const double scale = 1.0 + std::fabs(fast.At(0, 0));
  EXPECT_LT(MaxAbsDiff(fast, want), 1e-9 * scale);
  // Symmetry must be exact (the builder mirrors the upper triangle).
  for (int64_t i = 0; i < L; ++i) {
    for (int64_t j = 0; j < L; ++j) {
      EXPECT_EQ(fast.At(i, j), fast.At(j, i));
    }
  }
}

/// Shared checks for an eigendecomposition of symmetric `a`.
void CheckEigenProperties(const Matrix& a, const reference::EigenPairs& eig,
                          double tol) {
  const int64_t n = a.rows();
  // Eigenvalues descending.
  for (int64_t i = 1; i < n; ++i) {
    EXPECT_GE(eig.values[static_cast<size_t>(i - 1)],
              eig.values[static_cast<size_t>(i)]);
  }
  // VᵀV = I.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (int64_t r = 0; r < n; ++r) {
        dot += eig.vectors.At(r, i) * eig.vectors.At(r, j);
      }
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, tol) << i << "," << j;
    }
  }
  // A V = V diag(λ).
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t r = 0; r < n; ++r) {
      double av = 0.0;
      for (int64_t c = 0; c < n; ++c) {
        av += a.At(r, c) * eig.vectors.At(c, j);
      }
      EXPECT_NEAR(av,
                  eig.values[static_cast<size_t>(j)] * eig.vectors.At(r, j),
                  tol * (1.0 + std::fabs(eig.values[0])))
          << r << "," << j;
    }
  }
}

TEST(KernelEigenTest, TridiagonalSolverSatisfiesEigenProperties) {
  Rng rng(106);
  const int64_t n = 40;
  Matrix b = RandomMatrix(&rng, n, n);
  Matrix a = AtA(b);  // symmetric positive semi-definite
  auto eig = reference::Eigen(a);
  ASSERT_TRUE(eig.ok());
  CheckEigenProperties(a, *eig, 1e-8);
}

TEST(KernelEigenTest, EigenvaluesMatchJacobiReference) {
  Rng rng(107);
  const int64_t n = 48;
  Matrix b = RandomMatrix(&rng, n, n);
  Matrix a = AtA(b);
  auto fast = reference::Eigen(a);
  ASSERT_TRUE(fast.ok());
  const reference::EigenPairs jacobi = reference::JacobiEigen(a);
  CheckEigenProperties(a, jacobi, 1e-8);
  const double scale = 1.0 + std::fabs(jacobi.values[0]);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast->values[static_cast<size_t>(i)],
                jacobi.values[static_cast<size_t>(i)], 1e-7 * scale)
        << i;
  }
}

TEST(KernelEigenTest, EigenIsBitStableRunToRun) {
  Rng rng(108);
  const int64_t n = 33;
  Matrix b = RandomMatrix(&rng, n, n);
  Matrix a = AtA(b);
  auto first = reference::Eigen(a);
  auto second = reference::Eigen(a);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Same input, same thread-deterministic kernel -> byte-identical
  // output, which is what lets fleet determinism extend through SSA.
  EXPECT_EQ(first->values, second->values);
  EXPECT_EQ(MaxAbsDiff(first->vectors, second->vectors), 0.0);
}

TEST(KernelEigenTest, ZeroMatrixYieldsZeroSpectrum) {
  auto eig = reference::Eigen(Matrix(9, 9));
  ASSERT_TRUE(eig.ok());
  for (double v : eig->values) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace seagull
