// Differential/property harness for the packed blocked GEMM: seeded shape
// sweeps (0, 1, primes, block-boundary straddlers) x Op combinations x
// alpha/beta edge cases against the naive reference kernel, NaN/Inf
// propagation (the zero-skip regression), aliasing, the raw and tile entry
// points, packed-A reuse along a tile row, and the
// bit-identical-across-thread-counts determinism contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "diff_util.hpp"
#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::la {
namespace {

using diff::bit_identical;
using diff::gemm_reference;
using diff::max_abs_diff;
using diff::random_cmatrix;
using diff::random_rmatrix;

constexpr Op kOps[] = {Op::kNone, Op::kTrans, Op::kAdjoint};

// Dimensions chosen to straddle every kernel boundary: empty, single,
// sub-register-tile primes, the MR/NR edges, the MC block edge, and sizes
// with non-trivial remainders against MC=96 / KC=256.
constexpr std::size_t kDims[] = {0, 1, 2, 3, 5, 7, 8, 9, 17, 31, 33, 64, 97};

double tolerance(std::size_t k, double scale) {
  return 1e-13 * double(k + 1) * std::max(1.0, scale);
}

TEST(GemmDiff, ComplexShapeOpSweepMatchesReference) {
  Rng rng(101);
  const cplx alphas[] = {cplx{1}, cplx{0}, cplx{-1}, cplx{0.3, -0.7}};
  const cplx betas[] = {cplx{0}, cplx{1}, cplx{-0.5, 0.25}};
  int cases = 0;
  while (cases < 200) {
    const std::size_t m = kDims[rng.index(std::size(kDims))];
    const std::size_t k = kDims[rng.index(std::size(kDims))];
    const std::size_t n = kDims[rng.index(std::size(kDims))];
    const Op op_a = kOps[rng.index(3)], op_b = kOps[rng.index(3)];
    const cplx alpha = alphas[rng.index(std::size(alphas))];
    const cplx beta = betas[rng.index(std::size(betas))];

    const CMatrix a = op_a == Op::kNone ? random_cmatrix(m, k, rng)
                                        : random_cmatrix(k, m, rng);
    const CMatrix b = op_b == Op::kNone ? random_cmatrix(k, n, rng)
                                        : random_cmatrix(n, k, rng);
    CMatrix c = random_cmatrix(m, n, rng);
    CMatrix expected = c;
    gemm_reference(alpha, a, op_a, b, op_b, beta, expected);
    gemm(alpha, a, op_a, b, op_b, beta, c);
    EXPECT_LE(max_abs_diff(c, expected), tolerance(k, expected.max_abs()))
        << "m=" << m << " k=" << k << " n=" << n << " op_a=" << int(op_a)
        << " op_b=" << int(op_b);
    ++cases;
  }
}

TEST(GemmDiff, RealShapeOpSweepMatchesReference) {
  Rng rng(202);
  const double alphas[] = {1.0, 0.0, -1.0, 0.37};
  const double betas[] = {0.0, 1.0, -2.5};
  for (int cases = 0; cases < 100; ++cases) {
    const std::size_t m = kDims[rng.index(std::size(kDims))];
    const std::size_t k = kDims[rng.index(std::size(kDims))];
    const std::size_t n = kDims[rng.index(std::size(kDims))];
    const Op op_a = kOps[rng.index(3)], op_b = kOps[rng.index(3)];
    const double alpha = alphas[rng.index(std::size(alphas))];
    const double beta = betas[rng.index(std::size(betas))];

    const RMatrix a = op_a == Op::kNone ? random_rmatrix(m, k, rng)
                                        : random_rmatrix(k, m, rng);
    const RMatrix b = op_b == Op::kNone ? random_rmatrix(k, n, rng)
                                        : random_rmatrix(n, k, rng);
    RMatrix c = random_rmatrix(m, n, rng);
    RMatrix expected = c;
    gemm_reference(alpha, a, op_a, b, op_b, beta, expected);
    gemm(alpha, a, op_a, b, op_b, beta, c);
    EXPECT_LE(max_abs_diff(c, expected), tolerance(k, expected.max_abs()));
  }
}

TEST(GemmDiff, LargerThanEveryBlockMatchesReference) {
  Rng rng(303);
  // 130 > MC=96, 270 > KC=256: exercises multi-block loops with remainders.
  const CMatrix a = random_cmatrix(130, 270, rng);
  const CMatrix b = random_cmatrix(270, 101, rng);
  CMatrix c, expected;
  gemm(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0}, c);
  gemm_reference(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0}, expected);
  EXPECT_LE(max_abs_diff(c, expected), tolerance(270, expected.max_abs()));
}

// At one thread the tile grid runs tile-row-major, so each (k-block, tile
// row) packs its A block once and every other tile of that row reuses it.
// With MC = 96 and JB = 64, 256x256x256 is 3 x 4 tiles in one k-block, and
// 200x300x130 (m x k x n) is 3 x 3 tiles in each of two k-blocks.
TEST(GemmDiff, PackedABlockReusedAlongATileRow) {
  obs::Counter& packed = obs::Registry::global().counter("gemm.packa_packed");
  obs::Counter& reused = obs::Registry::global().counter("gemm.packa_reused");
  par::ParallelOptions one;
  one.n_threads = 1;
  Rng rng(313);
  // {m, k, n, packs, reuses}
  const std::size_t cases[][5] = {{256, 256, 256, 3, 9},
                                  {200, 300, 130, 6, 12}};
  for (const auto& s : cases) {
    const CMatrix a = random_cmatrix(s[0], s[1], rng);
    const CMatrix b = random_cmatrix(s[1], s[2], rng);
    const std::uint64_t packed0 = packed.value(), reused0 = reused.value();
    const CMatrix c = matmul(a, b, Op::kNone, Op::kNone, one);
    EXPECT_EQ(packed.value() - packed0, s[3]) << "m=" << s[0];
    EXPECT_EQ(reused.value() - reused0, s[4]) << "m=" << s[0];
    CMatrix expected;
    gemm_reference(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0}, expected);
    EXPECT_LE(max_abs_diff(c, expected), tolerance(s[1], expected.max_abs()));
  }
}

TEST(GemmDiff, ZeroInnerDimensionScalesCOnly) {
  Rng rng(7);
  CMatrix c = random_cmatrix(3, 4, rng);
  const CMatrix c0 = c;
  const CMatrix a(3, 0), b(0, 4);
  gemm(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{2}, c);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_EQ(c.data()[i], cplx{2} * c0.data()[i]);
}

TEST(GemmDiff, BetaZeroOverwritesStaleNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CMatrix c(2, 2, cplx{nan, nan});
  const CMatrix a = CMatrix::identity(2), b = CMatrix::identity(2);
  gemm(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0}, c);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_FALSE(std::isnan(c.data()[i].real()));
  EXPECT_EQ(c(0, 0), cplx{1});
}

// Regression for the old kernel's `aip == 0` row-skip: a zero row in A
// against NaN/Inf in B silently produced 0 where IEEE (and the reference
// kernel) give NaN. This test fails on the pre-packed kernel.
TEST(GemmDiff, ZeroTimesNanPropagates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Column 0 of A is all zero, so the old kernel's `aip == 0` skip never
  // touches row 0 of B — where the NaN/Inf live. IEEE says every C entry is
  // 0 * NaN (or 0 * Inf) + finite = NaN; the old kernel returned finite.
  CMatrix a{{cplx{0}, cplx{1}}, {cplx{0}, cplx{2}}};
  CMatrix b{{cplx{nan, 0}, cplx{inf, 0}}, {cplx{1}, cplx{1}}};
  CMatrix c, expected;
  gemm(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0}, c);
  diff::gemm_reference(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0}, expected);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_TRUE(std::isnan(expected(i, j).real())) << i << "," << j;
      EXPECT_TRUE(std::isnan(c(i, j).real())) << i << "," << j;
    }
}

TEST(GemmDiff, AliasedOutputMatchesReference) {
  Rng rng(404);
  for (const std::size_t n : {4u, 33u, 97u}) {
    const CMatrix a = random_cmatrix(n, n, rng);
    const CMatrix b = random_cmatrix(n, n, rng);

    CMatrix c1 = a;  // C aliases A
    CMatrix e1 = a;
    gemm_reference(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0.5, 0}, e1);
    gemm(cplx{1}, c1, Op::kNone, b, Op::kNone, cplx{0.5, 0}, c1);
    EXPECT_LE(max_abs_diff(c1, e1), tolerance(n, e1.max_abs()));

    CMatrix c2 = b;  // C aliases B
    CMatrix e2 = b;
    gemm_reference(cplx{1}, a, Op::kTrans, b, Op::kNone, cplx{1}, e2);
    gemm(cplx{1}, a, Op::kTrans, c2, Op::kNone, cplx{1}, c2);
    EXPECT_LE(max_abs_diff(c2, e2), tolerance(n, e2.max_abs()));
  }
}

TEST(GemmDiff, GemmTileAccumulates) {
  Rng rng(505);
  const std::size_t m = 13, k = 21, n = 9;
  const CMatrix a = random_cmatrix(m, k, rng);
  const CMatrix b = random_cmatrix(k, n, rng);
  CMatrix c = random_cmatrix(m, n, rng);
  CMatrix expected = c;
  gemm_reference(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{1}, expected);
  gemm_tile(a.data(), k, b.data(), n, c.data(), n, m, k, n);
  EXPECT_LE(max_abs_diff(c, expected), tolerance(k, expected.max_abs()));
}

// A product that is one C tile and one k-block runs inline on the calling
// thread; one past any of those bounds takes the tiled grid, where a tile
// runs every k-block of its k-span and one past KS starts a second span.
// Both sides of each bound must match the reference and give the same bits
// at every thread count.
TEST(GemmDiff, SingleTileBoundsMatchReferenceAtEveryThreadCount) {
  using B = GemmBlocking;
  Rng rng(1001);
  const std::size_t shapes[][3] = {
      {B::kMC, 8, 8},  {B::kMC + 1, 8, 8}, {8, 8, B::kJB},
      {8, 8, B::kJB + 1}, {8, B::kKC, 8}, {8, B::kKC + 1, 8},
      {B::kMC, B::kKC, B::kJB}, {B::kMC + 4, B::kKS, B::kJB + 6},
      {B::kMC + 4, B::kKS + 1, B::kJB + 6}};
  for (const auto& shape : shapes) {
    const std::size_t m = shape[0], k = shape[1], n = shape[2];
    const CMatrix a = random_cmatrix(m, k, rng);
    const CMatrix b = random_cmatrix(k, n, rng);
    CMatrix expected;
    gemm_reference(cplx{1}, a, Op::kNone, b, Op::kNone, cplx{0}, expected);
    CMatrix one_thread;
    for (const std::size_t t : {1u, 2u, 4u}) {
      par::ParallelOptions opts;
      opts.n_threads = t;
      const CMatrix c = matmul(a, b, Op::kNone, Op::kNone, opts);
      EXPECT_LE(max_abs_diff(c, expected), tolerance(k, expected.max_abs()))
          << "m=" << m << " k=" << k << " n=" << n << " threads=" << t;
      if (t == 1)
        one_thread = c;
      else
        EXPECT_TRUE(bit_identical(c, one_thread))
            << "m=" << m << " k=" << k << " n=" << n << " threads=" << t;
    }
  }
}

// beta = 0 on the inline path assigns, so stale NaNs in the output never
// leak through; entries past n in each row of a strided C stay untouched.
TEST(GemmDiff, SingleTileBetaZeroOverwritesStaleNanInStridedOutput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(1002);
  const std::size_t m = 5, k = 7, n = 3, ldc = 6;
  const CMatrix a = random_cmatrix(m, k, rng);
  const CMatrix b = random_cmatrix(k, n, rng);
  std::vector<cplx> c(m * ldc, cplx{nan, nan});
  const cplx alpha{0.5, -1.0};
  gemm_raw(m, k, n, alpha, a.data(), k, Op::kNone, b.data(), n, Op::kNone,
           cplx{0}, c.data(), ldc);
  CMatrix expected;
  gemm_reference(alpha, a, Op::kNone, b, Op::kNone, cplx{0}, expected);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < ldc; ++j) {
      if (j < n) {
        EXPECT_LE(std::abs(c[i * ldc + j] - expected(i, j)),
                  tolerance(k, expected.max_abs()));
      } else {
        EXPECT_TRUE(std::isnan(c[i * ldc + j].real())) << i << "," << j;
      }
    }
}

// The scaled raw entry and gemm() run the same kernel on the same operands:
// same bits for every op pair, on one tile and on a tile grid.
TEST(GemmDiff, ScaledRawEntryMatchesGemmBitForBit) {
  Rng rng(1003);
  const std::size_t shapes[][3] = {{5, 7, 3}, {97, 130, 65}};
  const cplx alpha{0.3, -0.7}, beta{-0.5, 0.25};
  for (const auto& shape : shapes) {
    const std::size_t m = shape[0], k = shape[1], n = shape[2];
    for (const Op op_a : kOps)
      for (const Op op_b : kOps) {
        const CMatrix a = op_a == Op::kNone ? random_cmatrix(m, k, rng)
                                            : random_cmatrix(k, m, rng);
        const CMatrix b = op_b == Op::kNone ? random_cmatrix(k, n, rng)
                                            : random_cmatrix(n, k, rng);
        CMatrix c = random_cmatrix(m, n, rng);
        CMatrix raw = c;
        gemm(alpha, a, op_a, b, op_b, beta, c);
        gemm_raw(m, k, n, alpha, a.data(), a.cols(), op_a, b.data(), b.cols(),
                 op_b, beta, raw.data(), n);
        EXPECT_TRUE(bit_identical(raw, c))
            << "m=" << m << " op_a=" << int(op_a) << " op_b=" << int(op_b);
      }
  }
}

// gemm_raw validates the stride of every operand against its *stored* shape:
// op == kNone reads A as m x k (lda >= k), transposed/adjoint ops read the
// k x m storage (lda >= m); likewise ldb against n / k. An undersized stride
// used to read out of bounds silently.
TEST(GemmDiff, GemmRawRejectsUndersizedStrides) {
  const std::size_t m = 6, k = 5, n = 4;
  std::vector<cplx> a(64), b(64), c(64);

  // All-valid baseline (generous strides) must not throw.
  EXPECT_NO_THROW(
      gemm_raw(m, k, n, a.data(), 8, Op::kNone, b.data(), 8, Op::kNone,
               c.data(), 8));
  EXPECT_NO_THROW(
      gemm_raw(m, k, n, a.data(), 8, Op::kTrans, b.data(), 8, Op::kAdjoint,
               c.data(), 8));

  // lda: kNone needs >= k, kTrans/kAdjoint need >= m.
  EXPECT_THROW(gemm_raw(m, k, n, a.data(), k - 1, Op::kNone, b.data(), 8,
                        Op::kNone, c.data(), 8),
               q2::Error);
  EXPECT_THROW(gemm_raw(m, k, n, a.data(), m - 1, Op::kTrans, b.data(), 8,
                        Op::kNone, c.data(), 8),
               q2::Error);
  EXPECT_THROW(gemm_raw(m, k, n, a.data(), m - 1, Op::kAdjoint, b.data(), 8,
                        Op::kNone, c.data(), 8),
               q2::Error);
  // A stride legal for the op's storage but smaller than the other
  // dimension must be accepted: stored k x m only needs lda >= m.
  EXPECT_NO_THROW(
      gemm_raw(n, k, m, a.data(), n, Op::kTrans, b.data(), 8, Op::kNone,
               c.data(), 8));

  // ldb: kNone needs >= n, kTrans/kAdjoint need >= k.
  EXPECT_THROW(gemm_raw(m, k, n, a.data(), 8, Op::kNone, b.data(), n - 1,
                        Op::kNone, c.data(), 8),
               q2::Error);
  EXPECT_THROW(gemm_raw(m, k, n, a.data(), 8, Op::kNone, b.data(), k - 1,
                        Op::kTrans, c.data(), 8),
               q2::Error);
  EXPECT_THROW(gemm_raw(m, k, n, a.data(), 8, Op::kNone, b.data(), k - 1,
                        Op::kAdjoint, c.data(), 8),
               q2::Error);

  // ldc < n (pre-existing check, kept).
  EXPECT_THROW(gemm_raw(m, k, n, a.data(), 8, Op::kNone, b.data(), 8,
                        Op::kNone, c.data(), n - 1),
               q2::Error);
}

// The portable scalar path and whatever ISA dispatch picked must agree to
// rounding (they sum in different orders), and each must uphold the
// thread-count determinism contract on its own.
TEST(GemmDiff, PortableIsaAgreesWithDispatch) {
  Rng rng(909);
  const std::size_t m = 70, k = 129, n = 53;
  const CMatrix a = random_cmatrix(m, k, rng);
  const CMatrix b = random_cmatrix(k, n, rng);

  simd::set_isa_override(simd::Isa::kPortable);
  const CMatrix c_portable = matmul(a, b);
  CMatrix c_portable_mt;
  {
    par::ParallelOptions opts;
    opts.n_threads = 4;
    c_portable_mt = matmul(a, b, Op::kNone, Op::kNone, opts);
  }
  simd::clear_isa_override();

  const CMatrix c_active = matmul(a, b);
  EXPECT_TRUE(bit_identical(c_portable_mt, c_portable));
  EXPECT_LE(max_abs_diff(c_active, c_portable),
            tolerance(k, c_portable.max_abs()));
}

// The determinism contract: for a fixed input, the result is bit-identical
// at every thread count (1, 2, 8), including oversubscription of a small
// pool. Run under `ctest -L concurrency` with Q2_SANITIZE=thread.
TEST(GemmDiff, BitIdenticalAcrossThreadCounts) {
  Rng rng(707);
  const std::size_t sizes[][3] = {{7, 5, 3}, {97, 130, 64}, {200, 257, 33}};
  for (const auto& s : sizes) {
    const CMatrix a = random_cmatrix(s[0], s[1], rng);
    const CMatrix b = random_cmatrix(s[1], s[2], rng);
    CMatrix base;
    {
      par::ParallelOptions opts;
      opts.n_threads = 1;
      base = matmul(a, b, Op::kNone, Op::kNone, opts);
    }
    for (const std::size_t t : {2u, 8u}) {
      par::ParallelOptions opts;
      opts.n_threads = t;
      const CMatrix c = matmul(a, b, Op::kNone, Op::kNone, opts);
      EXPECT_TRUE(bit_identical(c, base)) << "threads=" << t;
    }
  }
}

TEST(GemmDiff, DefaultThreadResolutionBitIdentical) {
  Rng rng(808);
  const CMatrix a = random_cmatrix(150, 90, rng);
  const CMatrix b = random_cmatrix(90, 110, rng);
  CMatrix base;
  {
    diff::ScopedThreads one(1);
    base = matmul(a, b);
  }
  for (const std::size_t t : {2u, 8u}) {
    diff::ScopedThreads scoped(t);
    EXPECT_TRUE(bit_identical(matmul(a, b), base)) << "threads=" << t;
  }
}

}  // namespace
}  // namespace q2::la
