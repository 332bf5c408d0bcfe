// Dense kernels (matvec, the Jacobi eigensolver) plus the LU oracle the
// propagator tests solve against.
#include "thermal/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "lu_reference.hpp"

namespace dimetrodon::thermal {
namespace {

TEST(LinalgTest, SolvesIdentity) {
  DenseMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) m.at(i, i) = 1.0;
  testing::ReferenceLu lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b{1.0, 2.0, 3.0};
  lu.solve(b);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 3.0);
}

TEST(LinalgTest, SolvesKnown2x2) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  DenseMatrix m(2);
  m.at(0, 0) = 2;
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 3;
  testing::ReferenceLu lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b{5.0, 10.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(LinalgTest, PivotingHandlesZeroDiagonal) {
  // [0 1; 1 0] requires a row swap.
  DenseMatrix m(2);
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  testing::ReferenceLu lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b{7.0, 9.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 9.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(LinalgTest, DetectsSingularMatrix) {
  DenseMatrix m(2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 4;  // rank 1
  testing::ReferenceLu lu;
  EXPECT_FALSE(lu.factor(m));
  EXPECT_FALSE(lu.valid());
}

TEST(LinalgTest, SolveManyRhsReusesFactorization) {
  DenseMatrix m(2);
  m.at(0, 0) = 4;
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 3;
  testing::ReferenceLu lu;
  ASSERT_TRUE(lu.factor(m));
  for (double k = 1.0; k < 5.0; k += 1.0) {
    std::vector<double> b{5.0 * k, 4.0 * k};
    lu.solve(b);
    EXPECT_NEAR(4 * b[0] + b[1], 5.0 * k, 1e-10);
    EXPECT_NEAR(b[0] + 3 * b[1], 4.0 * k, 1e-10);
  }
}

TEST(LinalgTest, RandomSpdSystemResidual) {
  // Diagonally dominant 6x6 (like a thermal conductance matrix).
  const std::size_t n = 6;
  DenseMatrix m(n);
  unsigned state = 12345;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state % 1000) / 1000.0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        m.at(i, j) = -next();
        row += -m.at(i, j);
      }
    }
    m.at(i, i) = row + 1.0;
  }
  testing::ReferenceLu lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b(n);
  for (auto& v : b) v = next() * 10.0;
  std::vector<double> x = b;
  lu.solve(x);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += m.at(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

TEST(LinalgTest, UnrolledMatvecBitIdenticalToReference) {
  // The unrolled kernel keeps the reference's single accumulator and term
  // order, so it must match it BITWISE — at sizes that exercise the full
  // 4x body, the scalar tail alone, and every mix of the two.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 33u}) {
    SCOPED_TRACE(n);
    DenseMatrix m(n);
    unsigned state = 7u + static_cast<unsigned>(n);
    auto next = [&state]() {
      state = state * 1664525u + 1013904223u;
      return static_cast<double>(state % 100000) / 9973.0 - 5.0;
    };
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) m.at(r, c) = next();
    }
    std::vector<double> x(n);
    for (auto& v : x) v = next();

    std::vector<double> fast, ref;
    matvec(m, x, fast);
    matvec_reference(m, x, ref);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(fast[i], ref[i]) << i;
  }
}

/// max |(A·V − V·Λ)_ij| and max |(Vᵀ·V − I)_ij| for a decomposition of `a`.
std::pair<double, double> eigen_residuals(const DenseMatrix& a,
                                          const SymmetricEigen& e) {
  const std::size_t n = a.size();
  double residual = 0.0;
  double orthogonality = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double av = 0.0;
      double vtv = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        av += a.at(i, k) * e.vectors.at(k, j);
        vtv += e.vectors.at(k, i) * e.vectors.at(k, j);
      }
      residual = std::max(
          residual, std::fabs(av - e.vectors.at(i, j) * e.values[j]));
      orthogonality =
          std::max(orthogonality, std::fabs(vtv - (i == j ? 1.0 : 0.0)));
    }
  }
  return {residual, orthogonality};
}

TEST(LinalgTest, SymmetricEigenDecomposesConductanceMatrices) {
  // Random weighted graph Laplacians plus a grounding diagonal (the shape of
  // a scaled thermal conductance matrix), from 1x1 up to 60x60.
  std::mt19937_64 rng(0x5eed);
  std::uniform_real_distribution<double> weight(0.0, 1.0);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 16u, 60u}) {
    SCOPED_TRACE(n);
    DenseMatrix a(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.at(i, i) += 1e-3 * weight(rng);
      for (std::size_t j = i + 1; j < n; ++j) {
        if (weight(rng) < 0.5) continue;
        const double g = std::pow(10.0, 4.0 * weight(rng) - 2.0);
        a.at(i, j) -= g;
        a.at(j, i) -= g;
        a.at(i, i) += g;
        a.at(j, j) += g;
      }
    }
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, a.at(i, i));
    const SymmetricEigen e = symmetric_eigen(a);
    const auto [residual, orthogonality] = eigen_residuals(a, e);
    EXPECT_LE(residual, 1e-13 * scale);
    EXPECT_LE(orthogonality, 1e-13);
    for (const double l : e.values) EXPECT_GE(l, -1e-13 * scale);
  }
}

TEST(LinalgTest, SymmetricEigenKeepsBlocksApart) {
  // Two uncoupled 2x2 blocks: every eigenvector lives in exactly one block,
  // and the zero mode of the floating block comes out (numerically) zero.
  DenseMatrix a(4);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = a.at(1, 0) = -1.0;
  a.at(1, 1) = 3.0;
  a.at(2, 2) = a.at(3, 3) = 0.5;
  a.at(2, 3) = a.at(3, 2) = -0.5;  // floating pair: eigenvalues 0 and 1
  const SymmetricEigen e = symmetric_eigen(a);
  int zero_modes = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    const bool top = e.vectors.at(0, j) != 0.0 || e.vectors.at(1, j) != 0.0;
    const bool bottom =
        e.vectors.at(2, j) != 0.0 || e.vectors.at(3, j) != 0.0;
    EXPECT_NE(top, bottom) << "mode " << j;
    if (std::fabs(e.values[j]) < 1e-15) ++zero_modes;
  }
  EXPECT_EQ(zero_modes, 1);
}

}  // namespace
}  // namespace dimetrodon::thermal
