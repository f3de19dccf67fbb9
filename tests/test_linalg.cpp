// Linear-algebra substrate tests: GEMM against hand values and naive
// reference, SVD/QR/eigh property tests over parameterized shapes, Davidson
// against dense diagonalization.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/davidson.hpp"
#include "linalg/eigh.hpp"
#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "linalg/svd_reference.hpp"

namespace q2::la {
namespace {

CMatrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  CMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.complex_normal();
  return a;
}

double reconstruction_error(const CMatrix& a, const SvdResult& f) {
  CMatrix us = f.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= f.s[j];
  const CMatrix rec = matmul(us, f.vh);
  return (rec - a).frobenius_norm();
}

double orthonormality_error(const CMatrix& q) {
  const CMatrix g = matmul(q, q, Op::kAdjoint, Op::kNone);
  CMatrix eye = CMatrix::identity(q.cols());
  return (g - eye).frobenius_norm();
}

TEST(Matrix, InitializerAndArithmetic) {
  RMatrix a{{1, 2}, {3, 4}};
  RMatrix b{{5, 6}, {7, 8}};
  RMatrix c = a + b;
  EXPECT_DOUBLE_EQ(c(0, 0), 6);
  EXPECT_DOUBLE_EQ(c(1, 1), 12);
  c -= a;
  EXPECT_DOUBLE_EQ(c(0, 1), 6);
  RMatrix d = 2.0 * a;
  EXPECT_DOUBLE_EQ(d(1, 0), 6);
}

TEST(Matrix, AdjointConjugates) {
  CMatrix a(1, 2);
  a(0, 0) = {1, 2};
  a(0, 1) = {3, -4};
  const CMatrix ah = a.adjoint();
  EXPECT_EQ(ah.rows(), 2u);
  EXPECT_EQ(ah(0, 0), cplx(1, -2));
  EXPECT_EQ(ah(1, 0), cplx(3, 4));
}

TEST(Matrix, ShapeMismatchThrows) {
  RMatrix a(2, 2), b(3, 3);
  EXPECT_THROW(a += b, Error);
}

TEST(Gemm, HandComputedProduct) {
  RMatrix a{{1, 2}, {3, 4}};
  RMatrix b{{5, 6}, {7, 8}};
  const RMatrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Gemm, MatchesNaiveKernel) {
  Rng rng(11);
  const CMatrix a = random_matrix(17, 23, rng);
  const CMatrix b = random_matrix(23, 9, rng);
  const CMatrix fast = matmul(a, b);
  CMatrix slow;
  gemm_naive(a, b, slow);
  EXPECT_LT((fast - slow).frobenius_norm(), 1e-10);
}

TEST(Gemm, TransposeAndAdjointOps) {
  Rng rng(12);
  const CMatrix a = random_matrix(6, 4, rng);
  const CMatrix b = random_matrix(6, 5, rng);
  const CMatrix c1 = matmul(a, b, Op::kAdjoint, Op::kNone);  // A^H B
  const CMatrix c2 = matmul(a.adjoint(), b);
  EXPECT_LT((c1 - c2).frobenius_norm(), 1e-12);
  const CMatrix d1 = matmul(a, b, Op::kTrans, Op::kNone);
  const CMatrix d2 = matmul(a.transposed(), b);
  EXPECT_LT((d1 - d2).frobenius_norm(), 1e-12);
}

TEST(Gemm, AccumulatesWithBeta) {
  Rng rng(13);
  const CMatrix a = random_matrix(4, 4, rng);
  const CMatrix b = random_matrix(4, 4, rng);
  CMatrix c = random_matrix(4, 4, rng);
  const CMatrix c0 = c;
  gemm(cplx{2, 0}, a, Op::kNone, b, Op::kNone, cplx{1, 0}, c);
  const CMatrix expect = c0 + 2.0 * matmul(a, b);
  EXPECT_LT((c - expect).frobenius_norm(), 1e-10);
}

TEST(Gemm, MatvecAgainstMatmul) {
  Rng rng(14);
  const CMatrix a = random_matrix(7, 5, rng);
  const std::vector<cplx> x = rng.complex_vector(5);
  const auto y = matvec(a, x);
  for (std::size_t i = 0; i < 7; ++i) {
    cplx s{};
    for (std::size_t j = 0; j < 5; ++j) s += a(i, j) * x[j];
    EXPECT_LT(std::abs(y[i] - s), 1e-12);
  }
}

struct SvdShape {
  std::size_t m, n;
};

class SvdShapes : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdShapes, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  Rng rng(100 + m * 31 + n);
  const CMatrix a = random_matrix(m, n, rng);
  const SvdResult f = svd(a);
  const std::size_t k = std::min(m, n);
  ASSERT_EQ(f.s.size(), k);
  for (std::size_t i = 1; i < k; ++i) EXPECT_LE(f.s[i], f.s[i - 1] + 1e-12);
  EXPECT_LT(reconstruction_error(a, f), 1e-9 * (1 + a.frobenius_norm()));
  EXPECT_LT(orthonormality_error(f.u), 1e-9);
  EXPECT_LT(orthonormality_error(f.vh.adjoint()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(SvdShape{1, 1}, SvdShape{3, 3},
                                           SvdShape{8, 3}, SvdShape{3, 8},
                                           SvdShape{16, 16}, SvdShape{32, 7},
                                           SvdShape{7, 32}, SvdShape{64, 64}));

TEST(Svd, GolubKahanMatchesJacobi) {
  // Two independently-derived SVD algorithms must agree on the spectrum.
  Rng rng(77);
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{9, 9},
                      {20, 12},
                      {12, 20},
                      {33, 33}}) {
    const CMatrix a = random_matrix(m, n, rng);
    const SvdResult gk = svd(a);
    const SvdResult jac = svd_jacobi_reference(a);
    ASSERT_EQ(gk.s.size(), jac.s.size());
    for (std::size_t i = 0; i < gk.s.size(); ++i)
      EXPECT_NEAR(gk.s[i], jac.s[i], 1e-10 * (1 + jac.s[0])) << m << "x" << n;
  }
}

TEST(Svd, JacobiPropertyCheck) {
  Rng rng(78);
  const CMatrix a = random_matrix(14, 9, rng);
  const SvdResult f = svd(a);
  EXPECT_LT(reconstruction_error(a, f), 1e-9 * (1 + a.frobenius_norm()));
  EXPECT_LT(orthonormality_error(f.u), 1e-9);
}

TEST(Svd, RankDeficientMatrixKeepsOrthonormalU) {
  Rng rng(21);
  // Rank-2 matrix in a 6x4 shape.
  const CMatrix u = random_matrix(6, 2, rng);
  const CMatrix v = random_matrix(2, 4, rng);
  const CMatrix a = matmul(u, v);
  const SvdResult f = svd(a);
  EXPECT_LT(orthonormality_error(f.u), 1e-8);
  EXPECT_NEAR(f.s[2], 0.0, 1e-8);
  EXPECT_NEAR(f.s[3], 0.0, 1e-8);
  EXPECT_LT(reconstruction_error(a, f), 1e-8);
}

TEST(Svd, JacobiZeroColumnsCompleteNullSpace) {
  // Regression for the rebuilt null-vector completion: several dead columns
  // force multiple completions against the same partial basis, the case the
  // old per-probe full-MGS implementation handled quadratically.
  Rng rng(23);
  CMatrix a = random_matrix(10, 6, rng);
  for (std::size_t i = 0; i < 10; ++i) {
    a(i, 1) = 0.0;
    a(i, 4) = 0.0;
  }
  const SvdResult f = svd(a);
  ASSERT_EQ(f.s.size(), 6u);
  EXPECT_EQ(f.s[4], 0.0);
  EXPECT_EQ(f.s[5], 0.0);
  EXPECT_LT(orthonormality_error(f.u), 1e-9);
  EXPECT_LT(orthonormality_error(f.vh.adjoint()), 1e-9);
  EXPECT_LT(reconstruction_error(a, f), 1e-9 * (1 + a.frobenius_norm()));
}

TEST(Svd, DiagonalMatrixSingularValues) {
  CMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = {0, -5.0};  // |.| = 5
  a(2, 2) = 1.0;
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 5.0, 1e-12);
  EXPECT_NEAR(f.s[1], 3.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(SvdTruncated, TruncationErrorMatchesDroppedWeight) {
  Rng rng(22);
  const CMatrix a = random_matrix(12, 12, rng);
  const SvdResult full = svd(a);
  const TruncatedSvd t = svd_truncated(a, 5);
  ASSERT_EQ(t.s.size(), 5u);
  double dropped = 0, total = 0;
  for (std::size_t i = 0; i < full.s.size(); ++i) {
    total += full.s[i] * full.s[i];
    if (i >= 5) dropped += full.s[i] * full.s[i];
  }
  EXPECT_NEAR(t.truncation_error, dropped / total, 1e-10);
}

TEST(SvdTruncated, CutoffDropsSmallValues) {
  CMatrix a(4, 4);
  a(0, 0) = 1.0;
  a(1, 1) = 0.5;
  a(2, 2) = 1e-9;
  a(3, 3) = 1e-12;
  const TruncatedSvd t = svd_truncated(a, 4, 1e-6);
  EXPECT_EQ(t.s.size(), 2u);
}

TEST(SvdTruncated, DegenerateTieAtMaxRankKeepsStableOrder) {
  // Three singular values are exactly equal; max_rank splits the tie. The
  // stable descending sort must keep the tied columns in their original
  // order, so the kept set — and therefore the retained subspace — is
  // deterministic: column 1 stays, columns 2 and 3 go.
  CMatrix a(5, 5);
  a(0, 0) = 1.0;
  a(1, 1) = 0.5;
  a(2, 2) = 0.5;
  a(3, 3) = 0.5;
  a(4, 4) = 0.2;
  const TruncatedSvd t = svd_truncated(a, 2);
  ASSERT_EQ(t.s.size(), 2u);
  EXPECT_DOUBLE_EQ(t.s[0], 1.0);
  EXPECT_DOUBLE_EQ(t.s[1], 0.5);
  // The second kept right-singular vector is e_1, the first of the tied trio.
  EXPECT_NEAR(std::abs(t.vh(1, 1)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(t.vh(1, 2)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(t.vh(1, 3)), 0.0, 1e-12);
  // Dropped weight accounted exactly once: the two discarded 0.5s plus 0.2.
  const double total = 1.0 + 3 * 0.25 + 0.04;
  EXPECT_NEAR(t.truncation_error, (2 * 0.25 + 0.04) / total, 1e-12);
}

TEST(SvdTruncated, DegenerateValuesExactlyAtCutoffDropTogether) {
  // Values sitting exactly on the cutoff boundary are dropped (<=), and a
  // degenerate pair at the boundary drops as a unit — no half-kept ties.
  CMatrix a(4, 4);
  a(0, 0) = 1.0;
  a(1, 1) = 0.5;
  a(2, 2) = 0.5;
  a(3, 3) = 1e-9;
  const TruncatedSvd t = svd_truncated(a, 4, 0.5);
  ASSERT_EQ(t.s.size(), 1u);
  EXPECT_DOUBLE_EQ(t.s[0], 1.0);
  const double total = 1.0 + 0.5 + 1e-18;
  EXPECT_NEAR(t.truncation_error, (2 * 0.25 + 1e-18) / total, 1e-12);
}

TEST(Eigh, HermitianRandomMatrix) {
  Rng rng(31);
  CMatrix a = random_matrix(10, 10, rng);
  a = a + a.adjoint();  // Hermitian
  const EighResult eg = eigh(a);
  // A V = V diag(w)
  const CMatrix av = matmul(a, eg.vectors);
  CMatrix vw = eg.vectors;
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j) vw(i, j) *= eg.values[j];
  EXPECT_LT((av - vw).frobenius_norm(), 1e-8);
  EXPECT_LT(orthonormality_error(eg.vectors), 1e-9);
  for (std::size_t i = 1; i < 10; ++i)
    EXPECT_GE(eg.values[i], eg.values[i - 1] - 1e-12);
}

TEST(Eigh, RealSymmetricKnownValues) {
  RMatrix a{{2, 1}, {1, 2}};
  const EighResultReal eg = eigh(a);
  EXPECT_NEAR(eg.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eg.values[1], 3.0, 1e-12);
}

TEST(Eigh, TraceAndDeterminantInvariants) {
  Rng rng(32);
  CMatrix a = random_matrix(8, 8, rng);
  a = a + a.adjoint();
  double trace = 0;
  for (std::size_t i = 0; i < 8; ++i) trace += a(i, i).real();
  const EighResult eg = eigh(a);
  double wsum = 0;
  for (double w : eg.values) wsum += w;
  EXPECT_NEAR(trace, wsum, 1e-9);
}

TEST(Qr, ThinFactorization) {
  Rng rng(41);
  const CMatrix a = random_matrix(9, 5, rng);
  const QrResult f = qr(a);
  EXPECT_LT(orthonormality_error(f.q), 1e-10);
  EXPECT_LT((matmul(f.q, f.r) - a).frobenius_norm(), 1e-10);
  // R upper triangular
  for (std::size_t i = 0; i < f.r.rows(); ++i)
    for (std::size_t j = 0; j < i && j < f.r.cols(); ++j)
      EXPECT_LT(std::abs(f.r(i, j)), 1e-10);
}

TEST(Qr, RankDeficientPanelStaysOrthonormal) {
  // An exactly dependent column zeroes a diagonal entry of R; the Householder
  // factorization must still return a fully orthonormal Q (the degenerate
  // reflector is the identity) and reproduce A.
  Rng rng(43);
  CMatrix a = random_matrix(7, 4, rng);
  for (std::size_t i = 0; i < 7; ++i) a(i, 2) = 2.0 * a(i, 0);
  const QrResult f = qr(a);
  EXPECT_LT(orthonormality_error(f.q), 1e-10);
  EXPECT_LT((matmul(f.q, f.r) - a).frobenius_norm(), 1e-10);
  EXPECT_LT(std::abs(f.r(2, 2)), 1e-12 * a.frobenius_norm());
}

TEST(Qr, RandomUnitaryIsUnitary) {
  Rng rng(42);
  const CMatrix u = random_unitary(6, rng);
  EXPECT_LT(orthonormality_error(u), 1e-10);
  const CMatrix uu = matmul(u, u, Op::kNone, Op::kAdjoint);
  EXPECT_LT((uu - CMatrix::identity(6)).frobenius_norm(), 1e-10);
}

TEST(Davidson, LowestEigenpairOfDenseSymmetric) {
  Rng rng(51);
  const std::size_t n = 60;
  RMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = double(i) - 5.0;
    for (std::size_t j = 0; j < i; ++j) {
      const double x = 0.1 * rng.normal();
      a(i, j) = a(j, i) = x;
    }
  }
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i);
  auto apply = [&](const std::vector<double>& x) { return matvec(a, x); };
  std::vector<double> guess(n, 0.0);
  guess[0] = 1.0;
  const DavidsonResult r = davidson_lowest(apply, diag, guess);
  ASSERT_TRUE(r.converged);

  // Oracle: dense eigensolver.
  const EighResultReal eg = eigh(a);
  EXPECT_NEAR(r.eigenvalue, eg.values[0], 1e-7);
}

TEST(Davidson, HermitianComplexOperator) {
  Rng rng(52);
  const std::size_t n = 40;
  CMatrix a = random_matrix(n, n, rng);
  a = a + a.adjoint();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += double(i);
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i).real();
  auto apply = [&](const std::vector<cplx>& x) { return matvec(a, x); };
  std::vector<cplx> guess(n, cplx{});
  guess[0] = 1.0;
  const DavidsonResultC r = davidson_lowest_hermitian(apply, diag, guess);
  ASSERT_TRUE(r.converged);
  const EighResult eg = eigh(a);
  EXPECT_NEAR(r.eigenvalue, eg.values[0], 1e-7);
}

TEST(Davidson, RejectsBadInput) {
  auto apply = [](const std::vector<double>& x) { return x; };
  EXPECT_THROW(davidson_lowest(apply, {1.0}, {}), Error);
  EXPECT_THROW(davidson_lowest(apply, {1.0, 2.0}, {1.0}), Error);
}

}  // namespace
}  // namespace q2::la
