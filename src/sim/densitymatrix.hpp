// Density-matrix simulator (the DM baseline of Fig. 2c). Stores the full
// 2^n x 2^n mixed-state matrix; gates act as rho -> U rho U^dagger. The
// 4^n memory wall this hits is exactly the point the figure makes.
#pragma once

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"
#include "pauli/qubit_operator.hpp"

namespace q2::sim {

class DensityMatrix {
 public:
  /// |0...0><0...0| on n qubits.
  explicit DensityMatrix(int n_qubits);

  int n_qubits() const { return n_; }
  std::size_t dim() const { return rho_.rows(); }
  const la::CMatrix& rho() const { return rho_; }

  void apply(const circ::Gate& g, const std::vector<double>& params = {});
  void run(const circ::Circuit& c, const std::vector<double>& params = {});

  /// Single-qubit depolarizing channel with error probability p — the noise
  /// model a density-matrix simulator exists to study.
  void apply_depolarizing(int qubit, double p);

  double trace_real() const;
  double purity() const;  ///< tr(rho^2); 1 for pure states

  cplx expectation(const pauli::PauliString& p) const;
  /// Σ_k c_k <P_k> in op.sorted_terms() order.
  cplx expectation(const pauli::QubitOperator& op) const;

 private:
  int n_;
  la::CMatrix rho_;
};

}  // namespace q2::sim
