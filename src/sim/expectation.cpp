#include "sim/expectation.hpp"

namespace q2::sim {

double measure_energy(const Mps& state, const pauli::QubitOperator& h) {
  require(h.is_hermitian(1e-8), "measure_energy: operator is not Hermitian");
  return state.expectation(h).real();
}

double measure_energy(const StateVector& state, const pauli::QubitOperator& h) {
  require(h.is_hermitian(1e-8), "measure_energy: operator is not Hermitian");
  return state.expectation(h).real();
}

}  // namespace q2::sim
