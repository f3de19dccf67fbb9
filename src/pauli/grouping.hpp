// Measurement grouping over the Pauli terms of a Hamiltonian.
//
// group_qubitwise_commuting partitions the terms into qubit-wise commuting
// (QWC) groups: the basis settings a hardware run would need. The MPS
// simulator does not sweep these groups; it measures a whole sum through
// pauli::build_measurement_mpo and a single string term by term.
#pragma once

#include <vector>

#include "pauli/pauli_string.hpp"

namespace q2::pauli {

/// True iff on every qubit the two strings agree or at least one is the
/// identity — the QWC condition. O(n/64) on the packed masks.
bool qubitwise_compatible(const PauliString& a, const PauliString& b);

/// One measurement basis setting: the union basis of all members, the member
/// indices into the caller's term list (ascending), and the union support
/// range.
struct MeasurementGroup {
  PauliString basis;                 ///< per-qubit union of member Paulis
  std::vector<std::size_t> members;  ///< indices into the input term list
  std::size_t lo = 0;                ///< first site of the union support
  std::size_t hi = 0;                ///< last site of the union support
};

/// Greedy first-fit QWC partition. Deterministic: depends only on the input
/// list and its order. Identity terms are skipped entirely (they carry no
/// measurement). A term is placed in the first group whose union basis it is
/// compatible with — compatibility with the union basis is equivalent to
/// pairwise compatibility with every member.
std::vector<MeasurementGroup> group_qubitwise_commuting(
    const std::vector<PauliString>& terms);

/// The shared support-range cost model: estimated transfer work for a sweep
/// over sites [lo, hi]. The LPT term balancer (EnergyEvaluator::term_costs)
/// and the per-term measurement sweep price work with this one function so
/// the schedule and the sweep cannot drift apart.
inline double support_cost(std::size_t lo, std::size_t hi) {
  return 1.0 + double(hi - lo + 1);
}
double support_cost(const PauliString& p);

}  // namespace q2::pauli
