#include "forecast/linalg.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "reference/linalg_reference.h"

namespace seagull {
namespace {

TEST(MatrixTest, Basics) {
  Matrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(1, 2) = 5;
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 5.0);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a(2, 2), b(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  b.At(0, 0) = 5;
  b.At(0, 1) = 6;
  b.At(1, 0) = 7;
  b.At(1, 1) = 8;
  Matrix c;
  MatMulNN(a, b.Row(0), 2, &c);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50.0);
  // A·Bᵀ with B's rows read in place: [[1,2],[3,4]]·[[5,7],[6,8]].
  MatMulNT(a, b.Row(0), 2, &c);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 17.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 23.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 39.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 53.0);
  // Aᵀ·B: [[1,3],[2,4]]·[[5,6],[7,8]].
  MatMulTN(a, b, &c);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 26.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 38.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 44.0);
}

TEST(TransposeMatVecTest, Known) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  const std::vector<double> y = TransposeMatVec(a, {1, 1});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(DotTest, Basics) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

TEST(EigenTest, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a(2, 2);
  a.At(0, 0) = 2;
  a.At(0, 1) = 1;
  a.At(1, 0) = 1;
  a.At(1, 1) = 2;
  auto eig = reference::Eigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 1.0, 1e-10);
}

TEST(EigenTest, RequiresSquare) {
  EXPECT_FALSE(reference::Eigen(Matrix(2, 3)).ok());
}

TEST(EigenTest, ReconstructsRandomSymmetric) {
  Rng rng(21);
  const int64_t n = 12;
  Matrix a(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      double v = rng.Gaussian();
      a.At(i, j) = v;
      a.At(j, i) = v;
    }
  }
  auto eig = reference::Eigen(a);
  ASSERT_TRUE(eig.ok());
  // A = V diag(lambda) V^T.
  Matrix vl = eig->vectors;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      vl.At(i, j) *= eig->values[static_cast<size_t>(j)];
    }
  }
  const Matrix recon =
      reference::MatMul(vl, reference::Transpose(eig->vectors));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(recon.At(i, j), a.At(i, j), 1e-8);
    }
  }
  // Eigenvalues descending, eigenvectors orthonormal.
  for (size_t k = 1; k < eig->values.size(); ++k) {
    EXPECT_GE(eig->values[k - 1], eig->values[k]);
  }
  Matrix vtv;
  MatMulTN(eig->vectors, eig->vectors, &vtv);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(vtv.At(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(EigenTest, RankDeficientGram) {
  // Two identical columns -> the Gram has one zero eigenvalue.
  Matrix a(4, 2);
  for (int64_t i = 0; i < 4; ++i) {
    a.At(i, 0) = static_cast<double>(i + 1);
    a.At(i, 1) = static_cast<double>(i + 1);
  }
  auto eig = reference::Eigen(AtA(a));
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 60.0, 1e-9);  // 2·(1+4+9+16)
  EXPECT_NEAR(eig->values[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace seagull
