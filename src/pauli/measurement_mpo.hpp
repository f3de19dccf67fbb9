// The exact matrix product operator of a Pauli sum, for measuring the whole
// sum in one MPS environment sweep.
//
// build_measurement_mpo follows the bipartite-graph construction of Ren et
// al., J. Chem. Phys. 153, 084118 (2020): cut by cut from left to right, the
// terms still open at a site form a bipartite graph between their (left
// state, letter) pairs and their remaining suffixes, and a minimum vertex
// cover of that graph (a maximum matching, by König's theorem) picks the
// fewest states that carry every term across the next cut. Nothing is
// compressed, so the MPO is Σ_k c_k P_k exactly. It shares both the prefixes
// and the suffixes of the strings. It is the one way the library measures a
// whole Pauli sum (sim::Mps::expectation(QubitOperator) and
// vqe::EnergyEvaluator); sim::Mps::expectation(PauliString), one string at
// a time, is the reference it is checked against.
#pragma once

#include <cstdint>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace q2::pauli {

/// Σ_k c_k P_k in site order, as the edges sim::Mps::sweep_mpo contracts.
/// The state space at each cut is explicit; two channels are not:
///   - the vacuum: terms not yet started, whose left environment is the
///     identity — diag(λ²) at the cut in the MPS canonical gauge;
///   - the close: a term ending at a site adds coeff · Tr(T_letter(E_in))
///     to the sum, the right of its support contracting to the identity.
/// An edge at site k maps an in-state at the cut left of k to an out-state
/// at the cut right of k: E_out += coeff · T_letter(E_in), with
/// T_σ(E) = Σ_{i'i} σ_{i'i} B_{i'}^† E B_i.
struct MeasurementMpo {
  static constexpr std::uint32_t kVacuum = 0xffffffffu;  ///< in-state
  static constexpr std::uint32_t kClose = 0xffffffffu;   ///< out-state
  struct Edge {
    std::uint32_t in = kVacuum;
    std::uint32_t out = kClose;
    P letter = P::I;
    cplx coeff{1.0};
  };

  std::vector<int> site_of;  ///< logical→site map the MPO was built for
  /// bond[k]: explicit states on the cut between sites k and k + 1.
  std::vector<std::size_t> bond;
  /// Site k's edges are edges[first_edge[k], first_edge[k + 1]), grouped by
  /// in-state in ascending order (the vacuum last).
  std::vector<std::size_t> first_edge;
  std::vector<Edge> edges;
  /// (site, in-state) environment updates one sweep makes: the number of
  /// edge groups summed over the sites.
  std::size_t updates = 0;

  std::size_t max_bond() const;
};

/// The exact MPO of Σ_k c_k · P_k over the (P_k, c_k) pairs in `terms`, for
/// states carrying the logical→site map `site_of` (a permutation of
/// [0, n)). An identity term enters as the letter I on site 0, so it
/// measures ⟨ψ|ψ⟩ in the canonical gauge. Deterministic: depends only on
/// the inputs and their order.
MeasurementMpo build_measurement_mpo(
    const std::vector<std::pair<PauliString, cplx>>& terms,
    const std::vector<int>& site_of);

}  // namespace q2::pauli
