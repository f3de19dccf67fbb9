#include "sim/densitymatrix.hpp"

namespace q2::sim {
namespace {

// Apply the 2x2 unitary to the row index (left multiplication by U on the
// target qubit), or conjugated to the column index when `right` is true.
void apply1(la::CMatrix& rho, int q, const std::array<cplx, 4>& m, bool right) {
  const std::size_t dim = rho.rows();
  const std::size_t bit = std::size_t(1) << q;
  if (!right) {
    for (std::size_t c = 0; c < dim; ++c) {
      for (std::size_t r = 0; r < dim; ++r) {
        if (r & bit) continue;
        const cplx a0 = rho(r, c), a1 = rho(r | bit, c);
        rho(r, c) = m[0] * a0 + m[1] * a1;
        rho(r | bit, c) = m[2] * a0 + m[3] * a1;
      }
    }
  } else {
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        if (c & bit) continue;
        const cplx a0 = rho(r, c), a1 = rho(r, c | bit);
        rho(r, c) = std::conj(m[0]) * a0 + std::conj(m[1]) * a1;
        rho(r, c | bit) = std::conj(m[2]) * a0 + std::conj(m[3]) * a1;
      }
    }
  }
}

void apply2(la::CMatrix& rho, int qhi, int qlo, const std::array<cplx, 16>& m,
            bool right) {
  const std::size_t dim = rho.rows();
  const std::size_t hi = std::size_t(1) << qhi, lo = std::size_t(1) << qlo;
  for (std::size_t other = 0; other < dim; ++other) {
    for (std::size_t idx = 0; idx < dim; ++idx) {
      if (idx & (hi | lo)) continue;
      const std::size_t b[4] = {idx, idx | lo, idx | hi, idx | hi | lo};
      cplx in[4], out[4] = {};
      for (int k = 0; k < 4; ++k)
        in[k] = right ? rho(other, b[k]) : rho(b[k], other);
      for (int r = 0; r < 4; ++r)
        for (int k = 0; k < 4; ++k) {
          const cplx u = right ? std::conj(m[r * 4 + k]) : m[r * 4 + k];
          out[r] += u * in[k];
        }
      for (int k = 0; k < 4; ++k) {
        if (right)
          rho(other, b[k]) = out[k];
        else
          rho(b[k], other) = out[k];
      }
    }
  }
}

}  // namespace

DensityMatrix::DensityMatrix(int n_qubits) : n_(n_qubits) {
  require(n_qubits >= 1 && n_qubits <= 14, "DensityMatrix: unsupported size");
  const std::size_t dim = std::size_t(1) << n_qubits;
  rho_ = la::CMatrix(dim, dim);
  rho_(0, 0) = 1.0;
}

void DensityMatrix::apply(const circ::Gate& g, const std::vector<double>& params) {
  if (!g.is_two_qubit()) {
    const auto m = g.matrix1(params);
    apply1(rho_, g.qubits[0], m, /*right=*/false);
    apply1(rho_, g.qubits[0], m, /*right=*/true);
  } else {
    const auto m = g.matrix2(params);
    apply2(rho_, g.qubits[0], g.qubits[1], m, false);
    apply2(rho_, g.qubits[0], g.qubits[1], m, true);
  }
}

void DensityMatrix::run(const circ::Circuit& c, const std::vector<double>& params) {
  require(c.n_qubits() == n_, "DensityMatrix::run: qubit count mismatch");
  for (const auto& g : c.gates()) apply(g, params);
}

void DensityMatrix::apply_depolarizing(int qubit, double p) {
  require(p >= 0 && p <= 1, "apply_depolarizing: bad probability");
  // rho -> (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z)
  la::CMatrix mixed(rho_.rows(), rho_.cols());
  const circ::GateKind kinds[3] = {circ::GateKind::kX, circ::GateKind::kY,
                                   circ::GateKind::kZ};
  for (const auto kind : kinds) {
    la::CMatrix branch = rho_;
    circ::Gate g{kind, {qubit, -1}};
    const auto m = g.matrix1();
    apply1(branch, qubit, m, false);
    apply1(branch, qubit, m, true);
    mixed += branch;
  }
  rho_ *= (1.0 - p);
  rho_ += mixed * cplx(p / 3.0, 0.0);
}

double DensityMatrix::trace_real() const {
  cplx t{};
  for (std::size_t i = 0; i < rho_.rows(); ++i) t += rho_(i, i);
  return t.real();
}

double DensityMatrix::purity() const {
  // tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 for Hermitian rho.
  double s = 0;
  for (std::size_t i = 0; i < rho_.rows(); ++i)
    for (std::size_t j = 0; j < rho_.cols(); ++j) s += norm2(rho_(i, j));
  return s;
}

cplx DensityMatrix::expectation(const pauli::PauliString& p) const {
  require(int(p.n_qubits()) == n_, "expectation: qubit count mismatch");
  // tr(P rho): row i of P has its entry at column j = i ^ x with the phase of
  // the string, so tr(P rho) = sum_i phase(i) rho(i ^ x ... ) — equivalently
  // walk the nonzeros of P.
  std::uint64_t x = 0, z = 0;
  int n_y = 0;
  for (std::size_t q = 0; q < p.n_qubits(); ++q) {
    switch (p.get(q)) {
      case pauli::P::X: x |= 1ull << q; break;
      case pauli::P::Z: z |= 1ull << q; break;
      case pauli::P::Y:
        x |= 1ull << q;
        z |= 1ull << q;
        ++n_y;
        break;
      default: break;
    }
  }
  cplx yphase{1, 0};
  for (int k = 0; k < (((n_y % 4) + 4) % 4); ++k) yphase *= cplx{0, 1};
  cplx t{};
  for (std::size_t i = 0; i < rho_.rows(); ++i) {
    const int sign = __builtin_popcountll(i & z) & 1 ? -1 : 1;
    // <i|P = phase(i) <i^x|, so tr(P rho) = sum_i phase(i) rho(i^x, i)?
    // P|i> = phase(i)|i^x>  =>  (P rho)(i^x, j) += phase(i) rho(i, j)
    // tr(P rho) = sum_j (P rho)(j, j) = sum_i phase(i) rho(i ^ x ... )
    t += double(sign) * yphase * rho_(i, i ^ x);
  }
  return t;
}

cplx DensityMatrix::expectation(const pauli::QubitOperator& op) const {
  cplx e{};
  for (const auto& [p, c] : op.sorted_terms()) e += c * expectation(p);
  return e;
}

}  // namespace q2::sim
