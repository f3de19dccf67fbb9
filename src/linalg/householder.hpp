// Shared Householder reflector machinery: zlarfg-style reflector generation
// plus row-major-friendly left/right application on raw buffers, used by the
// SVD's Golub-Kahan bidiagonalization and back-transformation and by the QR
// factorization (linalg/qr). reflect_left walks the operand row by row (the
// classic zlarf work-array formulation), so every inner loop is contiguous
// even though the reflector acts on a column; both directions run through
// the la::simd kernels.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "linalg/simd.hpp"

namespace q2::la::hh {

// LAPACK zlarfg: given alpha and tail x, produce (tau, beta) and overwrite
// x with the reflector tail v (v0 = 1 implicit) such that
// (I - conj(tau) v v^H) [alpha; x] = [beta; 0] with beta real.
struct Reflector {
  cplx tau{0, 0};
  double beta = 0;
};

inline Reflector make_reflector(cplx alpha, cplx* x, std::size_t tail) {
  double xnorm2 = 0;
  for (std::size_t i = 0; i < tail; ++i) xnorm2 += norm2(x[i]);
  Reflector r;
  if (xnorm2 == 0.0 && alpha.imag() == 0.0) {
    r.beta = alpha.real();
    return r;  // tau = 0: H = I
  }
  const double anorm = std::sqrt(norm2(alpha) + xnorm2);
  r.beta = alpha.real() >= 0 ? -anorm : anorm;
  r.tau = cplx((r.beta - alpha.real()) / r.beta, -alpha.imag() / r.beta);
  // scale = 1 / (alpha - beta) = conj(z) / |z|^2; |z| >= anorm > 0 because
  // beta takes the sign opposite to Re(alpha).
  const cplx z = alpha - r.beta;
  const double inv = 1.0 / norm2(z);
  const double sr = z.real() * inv, si = -z.imag() * inv;
  for (std::size_t i = 0; i < tail; ++i) {
    const double xr = x[i].real(), xi = x[i].imag();
    x[i] = cplx{xr * sr - xi * si, xr * si + xi * sr};
  }
  return r;
}

// A(r0.., c0..cols) <- (I - sigma v v^H) A on a row-major buffer with row
// stride ld; v0 = 1 at row r0, v[0..tail) on rows r0+1... `work` is caller
// scratch (resized to cols - c0) holding w = v^H A so both passes stream
// whole rows.
inline void reflect_left(cplx* a, std::size_t ld, std::size_t cols,
                         std::size_t r0, std::size_t c0, const cplx* v,
                         std::size_t tail, cplx sigma,
                         std::vector<cplx>& work) {
  if (sigma == cplx{} || c0 >= cols) return;
  work.resize(cols - c0);
  simd::householder_left(a + r0 * ld + c0, ld, tail + 1, cols - c0, v, sigma,
                         work.data());
}

// A(r0..rows, c0..) <- A (I - sigma v v^H), with v0 = 1 at column c0; rows
// already stream contiguously, no scratch needed.
inline void reflect_right(cplx* a, std::size_t ld, std::size_t rows,
                          std::size_t r0, std::size_t c0, const cplx* v,
                          std::size_t tail, cplx sigma) {
  if (sigma == cplx{} || r0 >= rows) return;
  simd::householder_right(a + r0 * ld + c0, ld, rows - r0, tail + 1, v,
                          sigma);
}

}  // namespace q2::la::hh
