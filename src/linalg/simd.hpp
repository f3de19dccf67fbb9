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
