// The pre-rebuild textbook scalar one-sided Jacobi SVD, kept verbatim as the
// independently-derived oracle for the differential tests (tests/test_svd_diff)
// and the perf baseline for bench_svd — the role gemm_naive plays for the GEMM
// substrate. Production code must not call this; use la::svd /
// la::svd_truncated / la::svd_truncated_ws, which run the Golub-Kahan engine.
#pragma once

#include "linalg/svd.hpp"

namespace q2::la {

/// Scalar cyclic one-sided Jacobi SVD (full decomposition, k = min(m, n)
/// triplets, zero singular values kept with completed orthonormal U columns).
SvdResult svd_jacobi_reference(const CMatrix& a);

}  // namespace q2::la
