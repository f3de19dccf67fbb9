// Embedding Hamiltonian construction (DMET Fig. 3, step 3): project the
// molecular Hamiltonian into fragment+bath space with the frozen-environment
// Coulomb field folded into the one-body term. Produces both the solver
// Hamiltonian (fully dressed) and the energy Hamiltonian (half-dressed, the
// democratic-partitioning form whose fragment-weighted expectation is E_x).
#pragma once

#include "chem/mo.hpp"
#include "chem/scf.hpp"
#include "dmet/bath.hpp"
#include "dmet/lowdin.hpp"

namespace q2::dmet {

struct EmbeddingProblem {
  chem::MoIntegrals solver;  ///< h + G[D_core], full embedding ERIs
  chem::MoIntegrals energy;  ///< h + G[D_core]/2 (for fragment energies)
  std::size_t n_fragment = 0;
  int n_alpha = 0, n_beta = 0;  ///< embedding electron counts
  std::vector<std::size_t> fragment_orbitals;  ///< [0, n_fragment)
  /// Warm start for a variational fragment solver: the fragment's optimum at
  /// the nearest chemical potential already evaluated (empty on the first
  /// sweep and for solvers that have no parameters). Set by the DMET driver.
  std::vector<double> initial_parameters;
};

EmbeddingProblem make_embedding(const chem::IntegralTables& ints,
                                const LowdinBasis& lb,
                                const la::RMatrix& p_oao,
                                const EmbeddingBasis& emb);

/// Apply democratic-partitioning weights to the integrals themselves: a
/// term's weight is the fraction of its indices inside the fragment. The
/// resulting Hamiltonian's expectation is the fragment energy E_x.
chem::MoIntegrals fragment_weighted_integrals(
    const chem::MoIntegrals& mo, const std::vector<std::size_t>& fragment);

/// Subtract mu on the fragment-orbital diagonal (global chemical potential).
chem::MoIntegrals with_chemical_potential(
    const chem::MoIntegrals& mo, const std::vector<std::size_t>& fragment,
    double mu);

/// Canonical (mean-field) orbitals of an embedding problem: a small RHF in
/// the orthonormal embedding basis. Columns of the returned matrix are the
/// canonical orbitals, energy-ordered — the reference determinant a UCCSD
/// ansatz needs (occupied = first n_occ columns). Each column is signed so
/// that its largest-magnitude entry is positive (on a tie within 1e-10, the
/// lowest such row), so amplitudes optimized at one chemical potential keep
/// their meaning at a nearby one.
la::RMatrix embedding_canonical_orbitals(const chem::MoIntegrals& mo,
                                         int n_occ);

/// Rotate one- and two-body integrals into a new orthonormal orbital basis
/// (columns of u).
chem::MoIntegrals rotate_orbitals(const chem::MoIntegrals& mo,
                                  const la::RMatrix& u);

}  // namespace q2::dmet
