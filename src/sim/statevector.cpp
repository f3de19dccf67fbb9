#include "sim/statevector.hpp"

#include <cmath>

#include "linalg/davidson.hpp"

namespace q2::sim {
namespace {

cplx i_power(int k) {
  switch (((k % 4) + 4) % 4) {
    case 0: return {1, 0};
    case 1: return {0, 1};
    case 2: return {-1, 0};
    default: return {0, -1};
  }
}

// Phase and flip masks of a Pauli string in the bit convention of this file:
// P|i> = i^{nY} * (-1)^{popcount(i & z)} |i ^ x>.
struct PauliMasks {
  std::uint64_t x = 0, z = 0;
  int n_y = 0;
};

PauliMasks masks_of(const pauli::PauliString& p) {
  require(p.n_qubits() <= 64, "statevector: > 64 qubits unsupported");
  PauliMasks m;
  for (std::size_t q = 0; q < p.n_qubits(); ++q) {
    switch (p.get(q)) {
      case pauli::P::X: m.x |= 1ull << q; break;
      case pauli::P::Z: m.z |= 1ull << q; break;
      case pauli::P::Y:
        m.x |= 1ull << q;
        m.z |= 1ull << q;
        ++m.n_y;
        break;
      case pauli::P::I: break;
    }
  }
  return m;
}

}  // namespace

StateVector::StateVector(int n_qubits) : n_(n_qubits) {
  require(n_qubits >= 1 && n_qubits <= 28, "StateVector: unsupported size");
  amps_.assign(std::size_t(1) << n_qubits, cplx{});
  amps_[0] = 1.0;
}

StateVector::StateVector(int n_qubits, std::vector<cplx> amplitudes)
    : n_(n_qubits), amps_(std::move(amplitudes)) {
  require(amps_.size() == (std::size_t(1) << n_qubits),
          "StateVector: amplitude count mismatch");
}

void StateVector::apply(const circ::Gate& g, const std::vector<double>& params) {
  if (!g.is_two_qubit()) {
    const auto m = g.matrix1(params);
    const std::size_t bit = std::size_t(1) << g.qubits[0];
    for (std::size_t i = 0; i < amps_.size(); ++i) {
      if (i & bit) continue;
      const cplx a0 = amps_[i], a1 = amps_[i | bit];
      amps_[i] = m[0] * a0 + m[1] * a1;
      amps_[i | bit] = m[2] * a0 + m[3] * a1;
    }
    return;
  }
  const auto m = g.matrix2(params);
  const std::size_t hi = std::size_t(1) << g.qubits[0];
  const std::size_t lo = std::size_t(1) << g.qubits[1];
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if (i & (hi | lo)) continue;
    // Basis order within the block: index = 2*bit(qubits[0]) + bit(qubits[1]).
    const std::size_t i00 = i, i01 = i | lo, i10 = i | hi, i11 = i | hi | lo;
    const cplx a00 = amps_[i00], a01 = amps_[i01], a10 = amps_[i10],
               a11 = amps_[i11];
    amps_[i00] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
    amps_[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
    amps_[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
    amps_[i11] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
  }
}

void StateVector::run(const circ::Circuit& c, const std::vector<double>& params) {
  require(c.n_qubits() == n_, "StateVector::run: qubit count mismatch");
  for (const auto& g : c.gates()) apply(g, params);
}

void StateVector::run(const circ::CompiledCircuit& c,
                      const std::vector<double>& params) {
  run(c.gates, params);
  if (!c.output_perm.is_identity())
    amps_ = circ::unpermute_statevector(amps_, c.output_perm);
}

double StateVector::norm() const {
  double s = 0;
  for (const auto& a : amps_) s += norm2(a);
  return std::sqrt(s);
}

double StateVector::probability(int q, int bit) const {
  const std::size_t mask = std::size_t(1) << q;
  double p = 0;
  for (std::size_t i = 0; i < amps_.size(); ++i)
    if (int((i & mask) != 0) == bit) p += norm2(amps_[i]);
  return p;
}

cplx StateVector::expectation(const pauli::PauliString& p) const {
  require(int(p.n_qubits()) == n_, "expectation: qubit count mismatch");
  const PauliMasks m = masks_of(p);
  const cplx yphase = i_power(m.n_y);
  cplx e{};
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    const int sign = __builtin_popcountll(i & m.z) & 1 ? -1 : 1;
    e += std::conj(amps_[i ^ m.x]) * (double(sign) * yphase) * amps_[i];
  }
  return e;
}

cplx StateVector::expectation(const pauli::QubitOperator& op) const {
  cplx e{};
  for (const auto& [p, c] : op.sorted_terms()) e += c * expectation(p);
  return e;
}

void accumulate_pauli_apply(const pauli::PauliString& p, cplx coeff,
                            const std::vector<cplx>& x, std::vector<cplx>& y) {
  const PauliMasks m = masks_of(p);
  const cplx yphase = i_power(m.n_y) * coeff;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const int sign = __builtin_popcountll(i & m.z) & 1 ? -1 : 1;
    y[i ^ m.x] += double(sign) * yphase * x[i];
  }
}

namespace {

using Terms = std::vector<std::pair<pauli::PauliString, cplx>>;

std::vector<cplx> apply_terms(const Terms& terms, const std::vector<cplx>& x) {
  std::vector<cplx> y(x.size(), cplx{});
  for (const auto& [p, c] : terms) accumulate_pauli_apply(p, c, x, y);
  return y;
}

std::vector<double> terms_diagonal(const Terms& terms, std::size_t n_qubits) {
  const std::size_t dim = std::size_t(1) << n_qubits;
  std::vector<double> d(dim, 0.0);
  for (const auto& [p, c] : terms) {
    const PauliMasks m = masks_of(p);
    if (m.x != 0) continue;  // off-diagonal term
    for (std::size_t i = 0; i < dim; ++i) {
      const int sign = __builtin_popcountll(i & m.z) & 1 ? -1 : 1;
      d[i] += (double(sign) * c).real();
    }
  }
  return d;
}

}  // namespace

std::vector<cplx> apply_qubit_operator(const pauli::QubitOperator& op,
                                       const std::vector<cplx>& x) {
  return apply_terms(op.sorted_terms(), x);
}

std::vector<double> qubit_operator_diagonal(const pauli::QubitOperator& op) {
  return terms_diagonal(op.sorted_terms(), op.n_qubits());
}

double qubit_ground_energy(const pauli::QubitOperator& op,
                           const std::vector<cplx>& guess) {
  // Sorted once: Davidson's matvec runs apply_terms on the same list.
  const Terms terms = op.sorted_terms();
  auto apply = [&terms](const std::vector<cplx>& x) {
    return apply_terms(terms, x);
  };
  const auto diag = terms_diagonal(terms, op.n_qubits());
  la::DavidsonOptions opts;
  opts.tolerance = 1e-9;
  const auto r = la::davidson_lowest_hermitian(apply, diag, guess, opts);
  require(r.converged, "qubit_ground_energy: Davidson did not converge");
  return r.eigenvalue;
}

}  // namespace q2::sim
