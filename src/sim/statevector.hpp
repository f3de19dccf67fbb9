// Exact state-vector simulator (the SV baseline of Fig. 2c and the oracle
// against which the MPS engine is cross-validated). Bit convention: qubit q
// of basis index i is (i >> q) & 1 throughout the repo.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/reorder.hpp"
#include "pauli/qubit_operator.hpp"

namespace q2::sim {

class StateVector {
 public:
  /// |0...0> on n qubits.
  explicit StateVector(int n_qubits);
  StateVector(int n_qubits, std::vector<cplx> amplitudes);

  int n_qubits() const { return n_; }
  std::size_t dim() const { return amps_.size(); }
  const std::vector<cplx>& amplitudes() const { return amps_; }
  std::vector<cplx>& amplitudes() { return amps_; }

  void apply(const circ::Gate& g, const std::vector<double>& params = {});
  void run(const circ::Circuit& c, const std::vector<double>& params = {});
  /// Runs a compiled circuit and immediately undoes its residual output
  /// permutation, so the amplitudes stay in the logical-qubit convention
  /// (cheap here — one index remap — unlike the MPS engine's SWAP tail).
  void run(const circ::CompiledCircuit& c,
           const std::vector<double>& params = {});

  double norm() const;
  /// Probability of qubit q measuring `bit`.
  double probability(int q, int bit) const;

  cplx expectation(const pauli::PauliString& p) const;
  /// Σ_k c_k <P_k>, summed in op.sorted_terms() order, so the bits do not
  /// depend on the order the operator was built in. So are the operator
  /// sums below, and those of DensityMatrix and ReferenceMps.
  cplx expectation(const pauli::QubitOperator& op) const;

 private:
  int n_;
  std::vector<cplx> amps_;
};

/// y += coeff * P x for a Pauli string (building block of sparse
/// qubit-Hamiltonian matvecs used by the Davidson cross-check).
void accumulate_pauli_apply(const pauli::PauliString& p, cplx coeff,
                            const std::vector<cplx>& x, std::vector<cplx>& y);

/// y = H x for a qubit operator acting on state vectors.
std::vector<cplx> apply_qubit_operator(const pauli::QubitOperator& op,
                                       const std::vector<cplx>& x);

/// Diagonal of the qubit operator in the computational basis (Davidson
/// preconditioner).
std::vector<double> qubit_operator_diagonal(const pauli::QubitOperator& op);

/// Lowest eigenvalue of a qubit Hamiltonian via Davidson on the state-vector
/// representation — the qubit-side ground-state oracle. Sorts the terms
/// once; every matvec sums them in that order.
double qubit_ground_energy(const pauli::QubitOperator& op,
                           const std::vector<cplx>& guess);

}  // namespace q2::sim
