// Deliberately unoptimized MPS simulator: no canonical-form bookkeeping, no
// Schmidt-vector reuse, naive (unblocked) kernels, local SVD truncation
// without the lambda-weighted gauge, and whole-chain transfer contractions
// (with explicit normalization) for every expectation value. This is the
// documented stand-in for the generic tensor-network comparators of Fig. 8
// (quimb / qiskit-MPS): exact when the bond dimension suffices, but slower
// per gate and with uncontrolled truncation error when it does not — the
// two costs the paper's canonical-form scheme removes.
#pragma once

#include "circuit/circuit.hpp"
#include "pauli/qubit_operator.hpp"
#include "sim/mps.hpp"

namespace q2::sim {

class ReferenceMps {
 public:
  explicit ReferenceMps(int n_qubits, MpsOptions options = {});

  int n_qubits() const { return n_; }

  void apply(const circ::Gate& g, const std::vector<double>& params = {});
  void run(const circ::Circuit& c, const std::vector<double>& params = {});
  /// Runs a compiled circuit and adopts its residual permutation; like the
  /// optimized engine, expectation and to_statevector then map logical
  /// observables through the permutation.
  void run(const circ::CompiledCircuit& c,
           const std::vector<double>& params = {});

  double norm() const;
  cplx expectation(const pauli::PauliString& p) const;
  /// Σ_k c_k <P_k> in op.sorted_terms() order.
  cplx expectation(const pauli::QubitOperator& op) const;
  std::vector<cplx> to_statevector() const;

  std::size_t max_bond_dimension() const;

 private:
  void apply_two_adjacent(int left_site, const std::array<cplx, 16>& m,
                          bool left_is_hi);

  int n_;
  MpsOptions options_;
  std::vector<std::vector<cplx>> tensors_;
  std::vector<std::size_t> dl_, dr_;
  circ::QubitPermutation perm_;
};

}  // namespace q2::sim
