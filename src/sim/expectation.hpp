// Energy-measurement utilities shared by the VQE drivers: direct (fast-path)
// Hamiltonian expectation on a prepared state.
#pragma once

#include "pauli/qubit_operator.hpp"
#include "sim/mps.hpp"
#include "sim/statevector.hpp"

namespace q2::sim {

/// Real Hamiltonian expectation on an MPS; requires a Hermitian operator.
double measure_energy(const Mps& state, const pauli::QubitOperator& h);
double measure_energy(const StateVector& state, const pauli::QubitOperator& h);

}  // namespace q2::sim
