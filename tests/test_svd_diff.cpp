// Differential harness for the SVD engine: the Golub-Kahan engine behind
// svd / svd_truncated / svd_truncated_ws is checked against the frozen scalar
// cyclic-Jacobi oracle (svd_jacobi_reference) over seeded shape/rank sweeps
// and the MPS hot shapes, plus the contracts the MPS update leans on —
// row-scale folding, want_u elision, workspace reuse, bit-identical results
// when called concurrently from pool threads, and rejection of non-finite
// operands.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "linalg/svd_reference.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::la {
namespace {

CMatrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  CMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.complex_normal();
  return a;
}

CMatrix low_rank_matrix(std::size_t m, std::size_t n, std::size_t rank,
                        Rng& rng) {
  const CMatrix u = random_matrix(m, rank, rng);
  const CMatrix v = random_matrix(rank, n, rng);
  return matmul(u, v);
}

double reconstruction_error(const CMatrix& a, const SvdResult& f) {
  CMatrix us = f.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= f.s[j];
  return (matmul(us, f.vh) - a).frobenius_norm();
}

double orthonormality_error(const CMatrix& q) {
  const CMatrix g = matmul(q, q, Op::kAdjoint, Op::kNone);
  return (g - CMatrix::identity(q.cols())).frobenius_norm();
}

struct DiffCase {
  std::size_t m, n, rank;  // rank == 0 means full rank
};

class SvdDiff : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SvdDiff, MatchesScalarReferenceSpectrum) {
  const auto [m, n, rank] = GetParam();
  Rng rng(500 + m * 131 + n * 17 + rank);
  const CMatrix a = rank == 0 ? random_matrix(m, n, rng)
                              : low_rank_matrix(m, n, rank, rng);
  const SvdResult ref = svd_jacobi_reference(a);
  const SvdResult fast = svd(a);
  ASSERT_EQ(fast.s.size(), ref.s.size());
  const double s0 = ref.s.empty() ? 0.0 : ref.s[0];
  for (std::size_t i = 0; i < ref.s.size(); ++i)
    EXPECT_NEAR(fast.s[i], ref.s[i], 1e-12 * (1 + s0))
        << m << "x" << n << " rank " << rank << " i=" << i;
  EXPECT_LT(reconstruction_error(a, fast), 1e-10 * (1 + a.frobenius_norm()));
  EXPECT_LT(orthonormality_error(fast.u), 1e-10);
  EXPECT_LT(orthonormality_error(fast.vh.adjoint()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndRanks, SvdDiff,
    ::testing::Values(DiffCase{1, 1, 0}, DiffCase{2, 2, 0}, DiffCase{5, 5, 0},
                      DiffCase{16, 16, 0}, DiffCase{48, 48, 0},
                      DiffCase{64, 64, 0}, DiffCase{40, 12, 0},
                      DiffCase{12, 40, 0}, DiffCase{33, 7, 0},
                      DiffCase{7, 33, 0}, DiffCase{1, 9, 0}, DiffCase{9, 1, 0},
                      DiffCase{24, 24, 6}, DiffCase{40, 16, 4},
                      DiffCase{16, 40, 4}, DiffCase{64, 64, 10}));

TEST(SvdDiff, TruncatedMatchesReferenceTruncation) {
  Rng rng(601);
  for (auto [m, n, max_rank] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{32, 32, 8},
        {48, 20, 5},
        {20, 48, 5},
        {64, 64, 16}}) {
    const CMatrix a = random_matrix(m, n, rng);
    const SvdResult ref = svd_jacobi_reference(a);
    const TruncatedSvd t = svd_truncated(a, max_rank);
    ASSERT_EQ(t.s.size(), max_rank);
    for (std::size_t i = 0; i < max_rank; ++i)
      EXPECT_NEAR(t.s[i], ref.s[i], 1e-12 * (1 + ref.s[0]));
    double total = 0, dropped = 0;
    for (std::size_t i = 0; i < ref.s.size(); ++i) {
      total += ref.s[i] * ref.s[i];
      if (i >= max_rank) dropped += ref.s[i] * ref.s[i];
    }
    EXPECT_NEAR(t.truncation_error, dropped / total, 1e-11);
    // The kept factors must reconstruct the best rank-k approximation: the
    // residual equals the dropped weight exactly.
    CMatrix us = t.u;
    for (std::size_t i = 0; i < us.rows(); ++i)
      for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= t.s[j];
    const double resid = (matmul(us, t.vh) - a).frobenius_norm();
    EXPECT_NEAR(resid, std::sqrt(dropped), 1e-9 * (1 + std::sqrt(total)));
  }
}

TEST(SvdDiff, RowScaleFoldingMatchesPrescaledOperand) {
  Rng rng(602);
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{24, 10},
                      {10, 24},
                      {20, 20}}) {
    const CMatrix a = random_matrix(m, n, rng);
    std::vector<double> scale(m);
    for (std::size_t i = 0; i < m; ++i) scale[i] = 0.1 + 0.9 * rng.uniform();
    CMatrix scaled = a;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) scaled(i, j) *= scale[i];

    SvdWorkspace ws_fold, ws_pre;
    const TruncatedSpectrum folded =
        svd_truncated_ws(ws_fold, a.data(), m, n, n, scale.data(), 8, 0.0,
                         /*want_u=*/true);
    const TruncatedSpectrum pre =
        svd_truncated_ws(ws_pre, scaled.data(), m, n, n, nullptr, 8, 0.0,
                         /*want_u=*/true);
    ASSERT_EQ(folded.keep, pre.keep);
    // The packed operands are identical element-by-element, so the entire
    // computation is — compare bit-for-bit, not to a tolerance.
    EXPECT_EQ(0, std::memcmp(folded.s, pre.s, folded.keep * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(folded.vh, pre.vh,
                             folded.keep * n * sizeof(cplx)));
    EXPECT_EQ(0, std::memcmp(folded.u, pre.u, m * folded.keep * sizeof(cplx)));
  }
}

TEST(SvdDiff, BitIdenticalAcrossThreadCounts) {
  // The engine is serial; what must hold is that concurrent calls from pool
  // threads, each on its own workspace, reproduce every output bit.
  Rng rng(603);
  constexpr std::size_t kCalls = 6;
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{64, 64},
                      {80, 24},
                      {24, 80}}) {
    const CMatrix a = random_matrix(m, n, rng);
    const std::size_t max_rank = 12;
    std::vector<std::vector<double>> s_runs(kCalls);
    std::vector<std::vector<cplx>> u_runs(kCalls), vh_runs(kCalls);
    std::vector<double> s_ref;
    std::vector<cplx> u_ref, vh_ref;
    for (std::size_t threads : {1u, 2u, 4u}) {
      par::ParallelOptions p;
      p.n_threads = threads;
      par::parallel_for(p, 0, kCalls, [&](std::size_t i) {
        SvdWorkspace ws;
        const TruncatedSpectrum f = svd_truncated_ws(
            ws, a.data(), m, n, n, nullptr, max_rank, 0.0, /*want_u=*/true);
        s_runs[i].assign(f.s, f.s + f.keep);
        u_runs[i].assign(f.u, f.u + m * f.keep);
        vh_runs[i].assign(f.vh, f.vh + f.keep * n);
      });
      if (s_ref.empty()) {
        s_ref = s_runs[0];
        u_ref = u_runs[0];
        vh_ref = vh_runs[0];
      }
      for (std::size_t i = 0; i < kCalls; ++i) {
        ASSERT_EQ(s_runs[i].size(), s_ref.size());
        EXPECT_EQ(0, std::memcmp(s_ref.data(), s_runs[i].data(),
                                 s_ref.size() * sizeof(double)))
            << threads << " threads, call " << i;
        EXPECT_EQ(0, std::memcmp(u_ref.data(), u_runs[i].data(),
                                 u_ref.size() * sizeof(cplx)));
        EXPECT_EQ(0, std::memcmp(vh_ref.data(), vh_runs[i].data(),
                                 vh_ref.size() * sizeof(cplx)));
      }
    }
  }
}

TEST(SvdDiff, WantUFalseLeavesSpectrumAndVhUnchanged) {
  Rng rng(604);
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{30, 12},
                      {12, 30},
                      {26, 26}}) {
    const CMatrix a = random_matrix(m, n, rng);
    SvdWorkspace ws_full, ws_lean;
    const TruncatedSpectrum full = svd_truncated_ws(
        ws_full, a.data(), m, n, n, nullptr, 6, 0.0, /*want_u=*/true);
    const TruncatedSpectrum lean = svd_truncated_ws(
        ws_lean, a.data(), m, n, n, nullptr, 6, 0.0, /*want_u=*/false);
    ASSERT_EQ(full.keep, lean.keep);
    EXPECT_EQ(lean.u, nullptr);
    EXPECT_EQ(0, std::memcmp(full.s, lean.s, full.keep * sizeof(double)));
    EXPECT_EQ(0,
              std::memcmp(full.vh, lean.vh, full.keep * n * sizeof(cplx)));
    EXPECT_DOUBLE_EQ(full.truncation_error, lean.truncation_error);
  }
}

TEST(SvdDiff, WorkspaceReuseMatchesFreshWorkspace) {
  Rng rng(605);
  // Run a large decomposition first so every buffer is oversized, then a
  // small one: stale bytes beyond the active extents must not leak in.
  const CMatrix big = random_matrix(72, 64, rng);
  const CMatrix small = random_matrix(12, 7, rng);
  SvdWorkspace reused;
  (void)svd_truncated_ws(reused, big.data(), 72, 64, 64, nullptr, 32, 0.0,
                         true);
  const TruncatedSpectrum warm = svd_truncated_ws(
      reused, small.data(), 12, 7, 7, nullptr, 5, 0.0, /*want_u=*/true);
  SvdWorkspace fresh;
  const TruncatedSpectrum cold = svd_truncated_ws(
      fresh, small.data(), 12, 7, 7, nullptr, 5, 0.0, /*want_u=*/true);
  ASSERT_EQ(warm.keep, cold.keep);
  EXPECT_EQ(0, std::memcmp(warm.s, cold.s, warm.keep * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(warm.u, cold.u, 12 * warm.keep * sizeof(cplx)));
  EXPECT_EQ(0, std::memcmp(warm.vh, cold.vh, warm.keep * 7 * sizeof(cplx)));
  EXPECT_DOUBLE_EQ(warm.truncation_error, cold.truncation_error);
}

TEST(SvdDiff, DegenerateColumnsAndZeros) {
  Rng rng(606);
  // Duplicate and zero columns exercise the rotation-skip and null-vector
  // paths against the oracle.
  CMatrix a = random_matrix(18, 8, rng);
  for (std::size_t i = 0; i < 18; ++i) {
    a(i, 3) = a(i, 1);  // duplicate pair -> degenerate spectrum
    a(i, 6) = 0.0;      // dead column -> exact zero singular value
  }
  const SvdResult ref = svd_jacobi_reference(a);
  const SvdResult fast = svd(a);
  ASSERT_EQ(fast.s.size(), ref.s.size());
  for (std::size_t i = 0; i < ref.s.size(); ++i)
    EXPECT_NEAR(fast.s[i], ref.s[i], 1e-12 * (1 + ref.s[0]));
  EXPECT_LT(reconstruction_error(a, fast), 1e-10 * (1 + a.frobenius_norm()));
  EXPECT_LT(orthonormality_error(fast.u), 1e-10);
  EXPECT_LT(orthonormality_error(fast.vh.adjoint()), 1e-10);
}

TEST(SvdDiff, AllZeroMatrix) {
  const CMatrix a(9, 4);
  const SvdResult f = svd(a);
  ASSERT_EQ(f.s.size(), 4u);
  for (double s : f.s) EXPECT_EQ(s, 0.0);
  // Factors are still completed to orthonormal bases.
  EXPECT_LT(orthonormality_error(f.u), 1e-12);
  EXPECT_LT(orthonormality_error(f.vh.adjoint()), 1e-12);
}

// Regression: a rank-4 8x8 two-site operand captured from the routed H4
// UCCSD circuit (gate 106). The input has no zero column, but Jacobi
// rotations annihilate four columns mid-run; the incremental cached-norm
// update could then round a norm below zero, the sqrt(app*aqq) NaN slipped
// past the old `denom <= 0` guard, and the 0/0 off-diagonal phase poisoned
// the whole factorization. Hex-float literals keep the operand bit-exact.
TEST(SvdDiff, RankDeficientTwoSiteOperandStaysFinite) {
  // rows=8 cols=8, interleaved re/im, row-major.
  static const double kGate106[128] = {
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x1.1690bd0f9db8cp-51, 0x1.ff5c31b28925ap-1, 0x1.47726359e8d1p-107, -0x1.ec23511660696p-54,
      0x1.ca5a0e0f76ff2p-57, 0x1.996dea2ff643ap-5, 0x1.e7214b6c60e7ap-60, 0x1.89250d259e32p-59,
      -0x1.8p-52, -0x1.2aac03a565b48p-52, 0x0p+0, -0x1p-108,
      0x0p+0, 0x1.55b4d00c84748p-57, -0x1p-109, 0x1p-110,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, -0x1.2a3edd98498acp-52, -0x1.c6e6fb37d06adp-111, 0x1.47db47c41633ap-107,
      0x1.eb46d633d4884p-57, -0x1.332cdbf4c65c9p-56, 0x1.b7fd0c1ce70efp-111, -0x1.b44e4d17f2874p-110,
      -0x1.5710186a16f72p-53, -0x1.ff5c31b289259p-1, 0x1.07ad0f31e163fp-56, -0x1.0fd4a54d133f2p-54,
      -0x1.a8111d1890abp-60, 0x1.996dea2ff6433p-5, -0x1.13d6df2ee644fp-58, 0x1.35cde5b10e99cp-58,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x1.9a1a96ceeb4afp-57, -0x1.13bb1e74665f3p-57, 0x1.52a0e11c9e20dp-58, -0x1.0364c32149cf9p-59,
      -0x1.0019edb5af1f7p-52, 0x1.58605bb2dcdfcp-53, -0x1.df1588b954cf1p-68, -0x1.3a6c1861f7c8dp-61,
      -0x1.2746744f9773cp-57, 0x1.c769b093284f2p-55, 0x1.2e1fa9008f1dfp-1, -0x1.9c90d2f511936p-1,
      0x1.5aa7a0b01a74p-52, -0x1.37c7e4dc1795bp-53, 0x1.ffbee45787a5cp-7, 0x1.84ed7677cb625p-5,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x1.e6328618f47bap-58, -0x1.08e050dbd85adp-52, 0x1.2e1fa9008f1dep-1, -0x1.9c90d2f511937p-1,
      0x1.68p-52, 0x1.78p-53, -0x1.ffbee45787a82p-7, -0x1.84ed7677cb639p-5,
      0x1.117256f8d384p-57, 0x1.e596f91b6017fp-58, 0x1.57e3ae6b95b23p-59, 0x1.bea863bc3070dp-58,
      0x1.5585fe4ffabd7p-53, 0x1.2f3d9a21de70dp-53, -0x1.b6d10dea78dd4p-62, -0x1.b615cab945e35p-61,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
  };
  static const double kRowScale[8] = {
      0x1.666e2a92e3c48p-1, 0x1.666e2a92e3c48p-1,
      0x1.666e2a92e3c47p-1, 0x1.666e2a92e3c47p-1,
      0x1.97e5c34738fb5p-4, 0x1.97e5c34738fb5p-4,
      0x1.97e5c34738fadp-4, 0x1.97e5c34738fadp-4,
  };
  const std::size_t rows = 8, cols = 8;
  std::vector<cplx> mm(rows * cols);
  for (std::size_t i = 0; i < rows * cols; ++i)
    mm[i] = cplx{kGate106[2 * i], kGate106[2 * i + 1]};

  SvdWorkspace ws;
  const TruncatedSpectrum f =
      svd_truncated_ws(ws, mm.data(), rows, cols, cols, kRowScale,
                       /*max_rank=*/64, /*cutoff=*/1e-12, /*want_u=*/false);
  ASSERT_EQ(f.keep, 4u);
  for (std::size_t r = 0; r < f.keep; ++r) {
    EXPECT_TRUE(std::isfinite(f.s[r])) << "s[" << r << "] = " << f.s[r];
    EXPECT_GT(f.s[r], 0.0);
  }
  for (std::size_t i = 0; i < f.keep * cols; ++i)
    ASSERT_TRUE(std::isfinite(f.vh[i].real()) && std::isfinite(f.vh[i].imag()))
        << "vh flat index " << i;

  // Spectrum matches the frozen oracle on the pre-weighted operand.
  CMatrix mw(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      mw(r, c) = mm[r * cols + c] * kRowScale[r];
  const SvdResult ref = svd_jacobi_reference(mw);
  for (std::size_t r = 0; r < f.keep; ++r)
    EXPECT_NEAR(f.s[r], ref.s[r], 1e-12 * (1.0 + ref.s[0]));
}

TEST(SvdDiff, TournamentScheduleCoversEveryPairOnce) {
  for (std::size_t n : {2u, 3u, 7u, 8u, 16u, 33u}) {
    const auto rounds = tournament_rounds(n);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const auto& round : rounds) {
      std::set<std::size_t> cols;  // disjointness within the round
      for (const auto& [p, q] : round) {
        EXPECT_LT(p, q);
        EXPECT_LT(q, n);
        EXPECT_TRUE(cols.insert(p).second);
        EXPECT_TRUE(cols.insert(q).second);
        EXPECT_TRUE(seen.insert({p, q}).second) << "pair repeated";
      }
    }
    EXPECT_EQ(seen.size(), n * (n - 1) / 2) << "n=" << n;
  }
}

// The MPS two-site update's traffic: the shapes of the H4 UCCSD workload,
// Schmidt-weighted through row_scale and decomposed without U. Eq. (10)
// rebuilds B_n as M V^dagger, so what the update relies on is that the kept
// rows of V^H are orthonormal and that projecting the weighted operand onto
// them leaves exactly the dropped weight behind.
TEST(SvdDiff, HotShapesWithoutUMatchReferenceAndRecoverEq10) {
  Rng rng(608);
  struct HotCase {
    std::size_t m, n, rank, max_rank;  // rank == 0 means full rank
  };
  for (const HotCase hc : {HotCase{16, 16, 0, 8}, HotCase{32, 8, 0, 4},
                           HotCase{8, 32, 0, 4}, HotCase{16, 4, 0, 2},
                           HotCase{8, 2, 0, 1}, HotCase{16, 16, 5, 16}}) {
    const std::size_t m = hc.m, n = hc.n;
    const CMatrix a = hc.rank == 0 ? random_matrix(m, n, rng)
                                   : low_rank_matrix(m, n, hc.rank, rng);
    std::vector<double> scale(m);
    for (std::size_t i = 0; i < m; ++i) scale[i] = 0.05 + rng.uniform();
    CMatrix mw = a;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) mw(i, j) *= scale[i];

    SvdWorkspace ws;
    const TruncatedSpectrum f =
        svd_truncated_ws(ws, a.data(), m, n, n, scale.data(), hc.max_rank,
                         /*cutoff=*/1e-12, /*want_u=*/false);
    EXPECT_EQ(f.u, nullptr);
    const SvdResult ref = svd_jacobi_reference(mw);
    const double s0 = ref.s[0];
    ASSERT_EQ(f.keep, hc.rank == 0 ? hc.max_rank : hc.rank)
        << m << "x" << n;
    for (std::size_t r = 0; r < f.keep; ++r)
      EXPECT_NEAR(f.s[r], ref.s[r], 1e-12 * s0) << m << "x" << n << " r=" << r;

    CMatrix vh(f.keep, n);
    std::copy(f.vh, f.vh + f.keep * n, vh.data());
    EXPECT_LT(orthonormality_error(vh.adjoint()), 1e-12) << m << "x" << n;

    double dropped = 0.0;
    for (std::size_t r = f.keep; r < ref.s.size(); ++r)
      dropped += ref.s[r] * ref.s[r];
    const CMatrix proj =
        matmul(matmul(mw, vh, Op::kNone, Op::kAdjoint), vh);
    const double resid = (mw - proj).frobenius_norm();
    EXPECT_NEAR(resid, std::sqrt(dropped), 1e-12 * s0) << m << "x" << n;
  }
}

// A NaN or Inf anywhere in the packed operand — including one that only
// appears through the row weights — is an error naming the shape, never a
// silently wrong spectrum. The single-column shapes matter: there the QR
// iteration has nothing to chase, so only the screen can catch the NaN.
TEST(SvdDiff, NonFiniteOperandThrowsNamingTheShape) {
  Rng rng(609);
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{16, 16},
                      {32, 8},
                      {8, 32},
                      {9, 1},
                      {1, 9}}) {
    const std::string shape = std::to_string(m) + "x" + std::to_string(n);
    auto expect_rejected = [&](auto&& decompose, const char* entry) {
      try {
        decompose();
        ADD_FAILURE() << entry << " accepted a non-finite " << shape
                      << " operand";
      } catch (const Error& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
        EXPECT_NE(what.find(shape), std::string::npos) << what;
      }
    };
    for (const double bad : kBad) {
      for (const bool imag : {false, true}) {
        CMatrix a = random_matrix(m, n, rng);
        a(m / 2, n - 1) = imag ? cplx{0.5, bad} : cplx{bad, 0.5};
        SvdWorkspace ws;
        expect_rejected(
            [&] {
              (void)svd_truncated_ws(ws, a.data(), m, n, n, nullptr, 8, 0.0,
                                     /*want_u=*/false);
            },
            "svd_truncated_ws");
        expect_rejected([&] { (void)svd(a); }, "svd");
      }
    }
    // A finite operand poisoned only by its row weight.
    const CMatrix a = random_matrix(m, n, rng);
    std::vector<double> scale(m, 1.0);
    scale[m - 1] = std::numeric_limits<double>::infinity();
    SvdWorkspace ws;
    expect_rejected(
        [&] {
          (void)svd_truncated_ws(ws, a.data(), m, n, n, scale.data(), 8, 0.0,
                                 /*want_u=*/false);
        },
        "svd_truncated_ws with row_scale");
  }
}

}  // namespace
}  // namespace q2::la
