// Complex singular value decomposition — the LAPACK-zgesvd stand-in that the
// MPS two-site update (paper Eq. 9) funnels through.
//
// One engine serves every entry point: Golub-Kahan (complex Householder
// bidiagonalization of the tall orientation — A itself, or A^H when A is
// wide — then implicit-shift QR on the real bidiagonal), the bidiagonal
// route the paper describes for swBLAS. The QR step rotates only the
// factors the caller uses, and the Householder back-transformation forms
// only the kept singular vectors: the MPS two-site update asks for V^H
// alone, so U is never formed on the gate hot path. The engine is serial
// and deterministic; svd_truncated_ws is the zero-copy workspace form the
// MPS update sits on, and svd / svd_truncated are allocating wrappers.
//
// Every entry point throws q2::Error, naming the operand shape, when a
// packed element is NaN or infinite, and when the QR iteration fails to
// converge (zgesvd's INFO > 0).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace q2::la {

struct SvdResult {
  CMatrix u;               ///< m x k, orthonormal columns (k = min(m, n)).
  std::vector<double> s;   ///< k singular values, descending.
  CMatrix vh;              ///< k x n, orthonormal rows (V adjoint).
};

/// Thin SVD of an arbitrary complex matrix. Singular values at or below the
/// null tolerance max(s_max, 1) * 1e-14 * max(m, n) are reported as exact
/// zeros; U and V keep orthonormal columns for them.
SvdResult svd(const CMatrix& a);

struct TruncatedSvd {
  CMatrix u;
  std::vector<double> s;
  CMatrix vh;
  /// Discarded weight: sum of squared dropped singular values divided by the
  /// total squared norm — the truncation-error monitor the paper describes —
  /// as 1 - kept / total (see TruncatedSpectrum).
  double truncation_error = 0.0;
  double discarded = 0.0;  ///< the same weight summed directly
  int sweeps = 0;  ///< implicit-QR sweeps (bulge chases) to convergence.
};

/// SVD truncated to at most `max_rank` singular values, additionally dropping
/// values at or below `cutoff * s_max`. This is the D-truncation of the MPS
/// bond.
TruncatedSvd svd_truncated(const CMatrix& a, std::size_t max_rank,
                           double cutoff = 0.0);

/// Reusable scratch for svd_truncated_ws. Buffers grow to the largest shape
/// seen and are never shrunk, so a long-lived workspace (e.g. the one owned
/// by sim::Mps) makes the truncated SVD allocation-free in steady state.
/// A workspace is not thread-safe; give each concurrent caller its own.
struct SvdWorkspace {
  std::vector<cplx> b;       ///< packed tall operand, reduced in place
  std::vector<cplx> lv, rv;  ///< left / right reflector tails, one row each
  std::vector<cplx> ltau, rtau;     ///< reflector scalars
  std::vector<cplx> hwork;          ///< reflector application scratch
  std::vector<double> d, e;         ///< real bidiagonal (e[i] = B(i-1, i))
  std::vector<double> wl, wr;       ///< QR rotation accumulators, N x N
  std::vector<std::size_t> order;   ///< stable descending permutation
  std::vector<cplx> out_u, out_vh;  ///< kept factors
  std::vector<double> out_s;
};

/// Zero-copy truncated SVD of the m x n row-major operand `a` (row stride
/// `lda` >= n). The returned pointers alias workspace buffers and stay valid
/// until the next call on the same workspace. When `row_scale` is non-null,
/// row i of the operand is multiplied by row_scale[i] during the packing
/// pass — this is how the MPS update folds the Eq. (8) Schmidt weighting in
/// without materializing the weighted copy. `want_u = false` skips U
/// entirely (the Hastings update restores B_n from the unweighted M and
/// V^H, so U is never formed on the gate hot path).
struct TruncatedSpectrum {
  const double* s = nullptr;   ///< keep values, descending
  const cplx* u = nullptr;     ///< m x keep row-major; nullptr if !want_u
  const cplx* vh = nullptr;    ///< keep x n row-major
  std::size_t keep = 0;
  /// 1 - kept / total: what a caller renormalizing the kept part divides
  /// by. Its rounding is a few ulp even when nothing is dropped.
  double truncation_error = 0.0;
  /// Sum of the dropped squares / total, summed directly: exactly 0 when
  /// nothing is dropped, and accurate to rounding relative to itself.
  double discarded = 0.0;
  int sweeps = 0;              ///< implicit-QR sweeps (bulge chases)
};

TruncatedSpectrum svd_truncated_ws(SvdWorkspace& ws, const cplx* a,
                                   std::size_t m, std::size_t n,
                                   std::size_t lda, const double* row_scale,
                                   std::size_t max_rank, double cutoff,
                                   bool want_u);

/// Round-based tournament schedule for n columns (modulus ordering: round k
/// pairs {i, j} with i + j == k mod n). The rounds together cover every
/// unordered pair exactly once, with the pairs inside a round pairwise
/// disjoint. Used by the sw:: CPE-cluster Jacobi SVD kernel.
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> tournament_rounds(
    std::size_t n);

}  // namespace q2::la
