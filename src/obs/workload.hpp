// Work accounting: kernels charge deterministic flop/byte costs at the call
// site so profile nodes can report achieved GFLOP/s and arithmetic intensity
// (roofline attribution). Placement rules (see DESIGN.md "Performance
// attribution"):
//
//   * Charge on the thread that owns the enclosing span, with an analytic
//     cost model evaluated *before* any parallel dispatch — never per-tile
//     inside workers. Totals are then bit-identical at every thread count.
//   * Charge where the arithmetic is decided, once: gemm_blocked charges for
//     every packed multiply that funnels through it, so callers higher up
//     (CPE tiles, MPS contractions, Pauli sweeps) must not re-charge flops
//     that reach a nested GEMM — they charge only the work the model below
//     does not see (e.g. DMA staging bytes, fused per-fiber updates).
//   * Byte models are minimal-traffic (each operand streamed once); measured
//     bandwidth above the model means cache misses, below means reuse.
#pragma once

#include <cstddef>
#include <cstdint>

namespace q2::obs {

/// Charges work to the always-on `work.flops` / `work.bytes` counters and,
/// when profiling is enabled, to the calling thread's open profile node.
struct WorkCounter {
  static void charge(std::uint64_t flops, std::uint64_t bytes);
};

/// C += A·B with A m×k, B k×n: one complex multiply-add is 8 flops (4 mul +
/// 4 add), one real multiply-add is 2.
inline std::uint64_t gemm_flops(std::size_t m, std::size_t k, std::size_t n,
                                bool complex_elements) {
  return std::uint64_t(complex_elements ? 8 : 2) * m * k * n;
}

/// Minimal GEMM traffic: stream A and B once, read + write C.
inline std::uint64_t gemm_bytes(std::size_t m, std::size_t k, std::size_t n,
                                std::size_t elem_bytes) {
  return std::uint64_t(m * k + k * n + 2 * m * n) * elem_bytes;
}

/// Applying one Householder reflector of length `len` (v0 = 1 plus the
/// tail) to `vectors` complex vectors: a conjugated dot and an axpy per
/// vector, 8 flops per complex multiply-add each. Traffic: each vector is
/// read twice and written once.
inline std::uint64_t householder_apply_flops(std::size_t vectors,
                                             std::size_t len) {
  return std::uint64_t(16) * vectors * len;
}
inline std::uint64_t householder_apply_bytes(std::size_t vectors,
                                             std::size_t len) {
  return std::uint64_t(48) * vectors * len;
}

/// Implicit-shift QR on the real bidiagonal: each chase step generates a
/// Givens rotation and updates the bidiagonal (about 24 flops in
/// registers); each rotation of a real accumulator row pair of length `len`
/// costs 6 flops per element and streams both rows in and out.
inline std::uint64_t svd_qr_flops(std::uint64_t steps,
                                  std::uint64_t row_rotations,
                                  std::size_t len) {
  return 24 * steps + 6 * row_rotations * len;
}
inline std::uint64_t svd_qr_bytes(std::uint64_t row_rotations,
                                  std::size_t len) {
  return 32 * row_rotations * len;
}

/// One tournament round of sw::svd_cpe's CPE-mesh Jacobi: every measured
/// pair pays a conjugated dot product (8 flops/element); each pair that
/// actually rotated additionally applies a 2x2 complex rotation to its two
/// columns (length `len`) and two V^H rows (length `vcols`) at 20 flops per
/// element pair.
inline std::uint64_t jacobi_round_flops(std::size_t pairs, std::size_t rotated,
                                        std::size_t len, std::size_t vcols) {
  return std::uint64_t(8) * pairs * len +
         std::uint64_t(20) * rotated * (len + vcols);
}

}  // namespace q2::obs
