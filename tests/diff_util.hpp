// Shared helpers for the differential/property suites (test_gemm_diff,
// test_sim_diff): seeded random operands, an op-aware naive reference GEMM
// that defines the semantics the packed kernel must match (including
// 0 * NaN propagation), and exact/approximate comparators.
#pragma once

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"

namespace q2::diff {

inline la::CMatrix random_cmatrix(std::size_t m, std::size_t n, Rng& rng) {
  la::CMatrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.complex_normal();
  return a;
}

inline la::RMatrix random_rmatrix(std::size_t m, std::size_t n, Rng& rng) {
  la::RMatrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  return a;
}

/// Element (i, j) of op(a).
template <typename T>
T op_at(const la::Matrix<T>& a, la::Op op, std::size_t i, std::size_t j) {
  switch (op) {
    case la::Op::kNone:
      return a(i, j);
    case la::Op::kTrans:
      return a(j, i);
    case la::Op::kAdjoint:
      if constexpr (std::is_same_v<T, cplx>)
        return std::conj(a(j, i));
      else
        return a(j, i);
  }
  throw Error("op_at: bad Op");
}

template <typename T>
std::size_t op_rows(const la::Matrix<T>& a, la::Op op) {
  return op == la::Op::kNone ? a.rows() : a.cols();
}

template <typename T>
std::size_t op_cols(const la::Matrix<T>& a, la::Op op) {
  return op == la::Op::kNone ? a.cols() : a.rows();
}

/// The semantics oracle: c(i,j) = alpha * sum_p op(a)(i,p) op(b)(p,j)
/// + beta * c_in(i,j), with the sum always fully evaluated (no zero-skips),
/// so NaN and Inf propagate per IEEE rules. beta == 0 overwrites c.
template <typename T>
void gemm_reference(T alpha, const la::Matrix<T>& a, la::Op op_a,
                    const la::Matrix<T>& b, la::Op op_b, T beta,
                    la::Matrix<T>& c) {
  const std::size_t m = op_rows(a, op_a), k = op_cols(a, op_a);
  const std::size_t n = op_cols(b, op_b);
  require(k == op_rows(b, op_b), "gemm_reference: inner dimension mismatch");
  if (c.empty() && beta == T{}) c = la::Matrix<T>(m, n);
  require(c.rows() == m && c.cols() == n, "gemm_reference: shape mismatch");
  la::Matrix<T> out(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      T s{};
      for (std::size_t p = 0; p < k; ++p)
        s += op_at(a, op_a, i, p) * op_at(b, op_b, p, j);
      out(i, j) = (beta == T{}) ? alpha * s : alpha * s + beta * c(i, j);
    }
  c = std::move(out);
}

template <typename T>
double max_abs_diff(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  if (!a.same_shape(b)) return 1e300;
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

/// Bitwise equality — the determinism contract across thread counts is
/// bit-identical output, not merely close.
template <typename T>
bool bit_identical(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Scoped override of the process-default thread count (restores on exit).
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { par::set_default_threads(n); }
  ~ScopedThreads() { par::set_default_threads(0); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};

}  // namespace q2::diff
