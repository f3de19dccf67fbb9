// Runtime-dispatched SIMD inner loops shared by the GEMM micro-kernel and
// the Golub-Kahan SVD (Householder reflector application, Givens rotations
// of the QR accumulators). One ISA is selected per process (AVX2+FMA when
// the CPU has it, a portable scalar path otherwise), so every thread
// executes the same instruction sequence and the bit-identical-across-
// thread-counts contracts of gemm/svd are untouched.
//
// The portable path reproduces the numerics the pre-SIMD kernels used
// (same accumulator chains, same combine order); the AVX2 path is a
// different — but fixed and thread-count-independent — summation order, so
// the two ISAs agree only to rounding. Differential tests compare them with
// tolerances (see test_gemm_diff PortableIsaAgreesWithDispatch).
//
// Q2_SIMD=portable in the environment forces the fallback (useful to
// reproduce results from hosts without AVX2).
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace q2::la::simd {

enum class Isa { kPortable, kAvx2Fma };

/// The ISA every simd:: entry point below dispatches to. Detected once per
/// process (unless overridden): AVX2+FMA when the CPU supports both and
/// Q2_SIMD != "portable", else the portable path.
Isa active_isa();
const char* isa_name(Isa isa);

/// Test hook: force an ISA for subsequent calls (kAvx2Fma is ignored on
/// hosts without the ISA). clear_isa_override() restores detection.
void set_isa_override(Isa isa);
void clear_isa_override();

/// GEMM micro-tile product, double flavor: acc (row-major 4x8, zeroed by the
/// caller) receives sum_p ap[p*4 + i] * bp[p*8 + j] over p in [0, kc). ap/bp
/// are the packed MR-row / NR-column micro-panels of gemm.cpp.
void micro_accumulate_d(std::size_t kc, const double* ap, const double* bp,
                        double* acc);

/// GEMM micro-tile product, complex flavor: acc is row-major 4x4.
void micro_accumulate_z(std::size_t kc, const cplx* ap, const cplx* bp,
                        cplx* acc);

/// Where the unpacked complex tile product reads a 4x4 tile's operands:
/// op(A)(i, p) = a[i * a_row + p * a_step], conjugated when conj_a, and
/// B(p, j) = b[p * ldb + j]. A packed micro-panel is the case a_row = 1,
/// a_step = 4 (B: ldb = 4).
struct ZTile {
  const cplx* a;
  std::size_t a_row, a_step;
  bool conj_a;
  const cplx* b;
  std::size_t ldb;
};

/// The AVX2 micro_accumulate_z kernel on operands read in place: the same
/// chain in the same order, so a C element gets the packed kernel's bits
/// when the operands hold the packed panels' values (NaN signs aside).
/// AVX2+FMA only: callers check active_isa() first; the portable ISA
/// packs. tile_z writes a full 4x4 tile of C from registers: C = acc, or
/// C += acc when `accumulate`.
void tile_z(std::size_t kc, const ZTile& t, cplx* c, std::size_t ldc,
            bool accumulate);

/// tile_z for a ragged mr x nr tile (or one the caller writes back itself):
/// acc (row-major 4x4) receives the tile; only rows < mr of A and columns
/// < nr of B are read (masked loads), and the rest of acc is padding.
void tile_z_acc(std::size_t kc, const ZTile& t, std::size_t mr,
                std::size_t nr, cplx* acc);

/// Householder reflector from the left on a rows x cols row-major block
/// (row stride ld): A <- (I - sigma w w^H) A with w = [1; v], v holding
/// rows - 1 elements. `work` is cols elements of caller scratch.
void householder_left(cplx* a, std::size_t ld, std::size_t rows,
                      std::size_t cols, const cplx* v, cplx sigma,
                      cplx* work);

/// Householder reflector from the right on a rows x cols row-major block:
/// A <- A (I - sigma w w^H) with w = [1; v], v holding cols - 1 elements.
void householder_right(cplx* a, std::size_t ld, std::size_t rows,
                       std::size_t cols, const cplx* v, cplx sigma);

/// Plane (Givens) rotation of two real rows:
///   (x[i], y[i]) <- (c x[i] + s y[i], c y[i] - s x[i]).
void givens(double* x, double* y, std::size_t len, double c, double s);

}  // namespace q2::la::simd
