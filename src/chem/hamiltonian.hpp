// Second-quantized molecular Hamiltonians (Eq. 1) and their qubit images
// under Jordan-Wigner (Eq. 2). Spin-orbital convention: qubit 2p is the
// alpha spin of spatial orbital p, qubit 2p+1 the beta spin.
#pragma once

#include "chem/mo.hpp"
#include "pauli/jordan_wigner.hpp"
#include "pauli/qubit_operator.hpp"

namespace q2::chem {

/// Jordan-Wigner image of the electronic Hamiltonian
/// H = sum h_pq a+_p a_q + 1/2 sum (pq|rs) a+_{p s1} a+_{r s2} a_{s s2} a_{q s1},
/// streamed from the integrals through pauli::JordanWignerAccumulator, plus
/// the core energy as an identity term. For H2/STO-3G this yields the 15
/// Pauli strings of Fig. 5.
pauli::QubitOperator molecular_qubit_hamiltonian(const MoIntegrals& mo);

/// Fragment-weighted Hamiltonian: each one-/two-body term is scaled by the
/// fraction of its creation-side indices inside `fragment_orbitals`
/// (democratic partitioning). Its expectation on the embedding wave function
/// is the DMET fragment energy — measurable as plain Pauli expectations,
/// exactly how a hardware VQE would do it.
pauli::QubitOperator fragment_weighted_hamiltonian(
    const MoIntegrals& mo, const std::vector<std::size_t>& fragment_orbitals);

/// Total electron-number operator restricted to the given spatial orbitals.
pauli::QubitOperator number_operator(std::size_t n_spatial,
                                     const std::vector<std::size_t>& orbitals);

/// General spin-summed one-body operator sum_pq c_pq a+_{p sigma} a_{q sigma}
/// (spatial coefficient matrix). Used to measure projected electron counts
/// after orbital rotations.
pauli::QubitOperator one_body_qubit_operator(const la::RMatrix& coeff);

}  // namespace q2::chem
