// Packed, cache-blocked GEMM micro-kernel substrate — the swBLAS stand-in.
// Everything above (the MPS updates and transfers, SVD, SCF, the simulators)
// funnels matrix products through here, so this is the single tuning point,
// exactly as swBLAS was for the paper. The kernel follows the classic
// GotoBLAS/BLIS decomposition: NC/KC/MC macro-blocking, A and B packed into
// MR- and NR-wide micro-panels (transpose/adjoint folded into the packing
// step), and a register-tiled MR x NR inner kernel with runtime-dispatched
// SIMD paths (linalg/simd.hpp: AVX2/FMA when the host has it, portable
// otherwise). C tiles form a 2-D (MC-row x JB-column) grid distributed over
// the process ThreadPool — B panels are packed cooperatively and beta is
// folded into the first k-block's write-back, so no serial phase precedes
// the parallel region. A product that is one tile and one k-block
// (m <= MC, n <= JB, k <= KC) skips the dispatch and runs inline on the
// calling thread through the same kernel; a complex one on AVX2 reads A (at
// alpha == 1) and an untransposed B in place instead of packing them, with
// the packed path's bits. Each tile is owned by exactly one thread, which
// runs its k-blocks in a fixed order, so results are bit-identical for every
// thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "parallel/parallel_options.hpp"

namespace q2::la {

enum class Op { kNone, kTrans, kAdjoint };

/// Blocking parameters (exposed so the differential tests can sweep shapes
/// that straddle every boundary). MR/NR are the register tile for double —
/// the complex kernel narrows to a 4x4 tile internally; MC/KC size the
/// packed A block; NC bounds the packed B panel. JB is the column width of
/// one parallel work unit: C tiles form an (m/MC) x (nc/JB) grid, so even a
/// 256-row product exposes enough tiles to feed every thread (the old
/// m/MC-only split gave 3 tiles for 4 threads). JB must be a multiple of
/// both register tile widths (8 real, 4 complex). KS is the k-span one tile
/// dispatch covers: a tile runs every KC k-block of its span before it
/// retires, and KS bounds the packed B panel and A row panel in k.
struct GemmBlocking {
  static constexpr std::size_t kMR = 4;
  static constexpr std::size_t kNR = 8;
  static constexpr std::size_t kMC = 96;
  static constexpr std::size_t kKC = 256;
  static constexpr std::size_t kNC = 2048;
  static constexpr std::size_t kJB = 64;
  static constexpr std::size_t kKS = 4 * kKC;
};

/// C = alpha * op(A) * op(B) + beta * C (shapes validated; C resized only if
/// beta == 0 and C is empty). If C aliases A or B (same storage), the
/// aliased operand is copied first, so in-place products are well defined.
/// `opts` controls the fan-out over macro-tiles; the default runs on the
/// global pool sizing rules (Q2_THREADS > pool size). Results are
/// bit-identical for every thread count.
void gemm(cplx alpha, const CMatrix& a, Op op_a, const CMatrix& b, Op op_b,
          cplx beta, CMatrix& c, const par::ParallelOptions& opts = {});
void gemm(double alpha, const RMatrix& a, Op op_a, const RMatrix& b, Op op_b,
          double beta, RMatrix& c, const par::ParallelOptions& opts = {});

/// Convenience: plain product op(A)*op(B).
CMatrix matmul(const CMatrix& a, const CMatrix& b, Op op_a = Op::kNone,
               Op op_b = Op::kNone, const par::ParallelOptions& opts = {});
RMatrix matmul(const RMatrix& a, const RMatrix& b, Op op_a = Op::kNone,
               Op op_b = Op::kNone, const par::ParallelOptions& opts = {});

/// Zero-copy sibling of matmul for callers that manage their own buffers:
/// C = op(A) op(B) written (beta = 0 semantics, C overwritten) into the
/// row-major buffer `c` with row stride `ldc` >= n. `lda`/`ldb` are the row
/// strides of the *stored* operands — for Op::kNone A is stored m x k, for
/// kTrans/kAdjoint it is stored k x m. C must not alias A or B. Same blocked
/// kernel and thread-count determinism as gemm().
void gemm_raw(std::size_t m, std::size_t k, std::size_t n, const cplx* a,
              std::size_t lda, Op op_a, const cplx* b, std::size_t ldb,
              Op op_b, cplx* c, std::size_t ldc,
              const par::ParallelOptions& opts = {});
/// gemm_raw with scaling: C = alpha op(A) op(B) + beta C on the same raw
/// buffers (beta = 0 overwrites C, stale NaNs included). Bit-identical to
/// gemm() on the same operands. The MPS transfer reads B_i and B_i^dagger
/// through it straight out of a site tensor: base t + i*dr, row stride 2*dr.
/// Reading such a strided slice in place (in the pack step, or in the
/// single-tile kernel) is the paper's "fused permutation and
/// multiplication": no permuted copy of the operand is ever made.
void gemm_raw(std::size_t m, std::size_t k, std::size_t n, cplx alpha,
              const cplx* a, std::size_t lda, Op op_a, const cplx* b,
              std::size_t ldb, Op op_b, cplx beta, cplx* c, std::size_t ldc,
              const par::ParallelOptions& opts = {});

/// Accumulating tile product on raw row-major buffers: C += A * B with
/// leading dimensions lda/ldb/ldc. Runs the packed micro-kernel serially on
/// the calling thread; this is the in-LDM tile multiply shared with the CPE
/// machine model (sw::gemm_cpe stages tiles, then calls this).
void gemm_tile(const cplx* a, std::size_t lda, const cplx* b, std::size_t ldb,
               cplx* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n);

/// y = A x.
std::vector<cplx> matvec(const CMatrix& a, const std::vector<cplx>& x);
std::vector<double> matvec(const RMatrix& a, const std::vector<double>& x);

/// Reference triple-loop kernel kept for the swBLAS-vs-LAPACK style
/// comparison in bench_profile/bench_kernels (paper §IV-B) and as the
/// differential-test oracle.
void gemm_naive(const CMatrix& a, const CMatrix& b, CMatrix& c);

}  // namespace q2::la
