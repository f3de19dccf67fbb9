// Measurement planning over the Pauli terms of a Hamiltonian.
//
// plan_measurement builds the plan the MPS direct measurement sweeps: the
// terms sorted so that neighbours share a prefix of their transfer chains,
// which the sweep then computes once. Each term's value still comes from its
// own chain of transfers and callers reduce the values in term order, so
// planned energies are bit-identical to per-term expectations.
// group_qubitwise_commuting partitions the terms into qubit-wise commuting
// (QWC) groups: the basis settings a hardware run would need.
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

/// The plan sim::Mps sweeps to measure many Pauli terms on one state. Each
/// non-identity term is mapped to sites through `site_of`, the logical→site
/// map the measured states carry, and the terms are sorted by first support
/// site, then by their Pauli letters from that site on. A term's value is a
/// chain of one environment transfer per support site followed by a trace;
/// two terms that start at the same site and agree on their first d letters
/// have the same first d transfers, so each entry reuses the leading
/// transfers it shares with the entry before it. Built once per term list
/// and permutation; sweeping it copies no strings.
struct MeasurementPlan {
  struct Entry {
    std::size_t term = 0;  ///< index into the planned term list
    std::size_t lo = 0;    ///< first support site
    std::size_t hi = 0;    ///< last support site
    /// Leading transfers shared with the previous entry (0 when the
    /// previous entry starts at another site).
    std::size_t shared = 0;
    std::size_t letters = 0;  ///< offset of its site letters in `letters`
  };
  /// A maximal run of entries with one start site. Blocks share no
  /// transfers with each other, so they are what a parallel sweep deals.
  struct Block {
    std::size_t begin = 0, end = 0;  ///< entries [begin, end)
    std::size_t transfers = 0;       ///< transfers sweeping the block makes
  };

  std::vector<int> site_of;  ///< logical→site map the plan was built for
  std::vector<Entry> entries;
  std::vector<Block> blocks;
  std::vector<P> letters;  ///< each entry's letters on sites lo..hi
  std::vector<std::size_t> identity_terms;  ///< terms with no support
  std::size_t transfers = 0;  ///< transfers sweeping every block makes

  /// The Pauli letter entry `e` applies at site `site` (lo <= site <= hi).
  P letter(const Entry& e, std::size_t site) const {
    return letters[e.letters + (site - e.lo)];
  }
};

/// Plans `terms` for states carrying the logical→site map `site_of` (a
/// permutation of [0, n); the identity for unpermuted states). The
/// transfer count is exact: one per distinct (start site, letter prefix)
/// pair among the non-identity terms. Deterministic: equal strings keep
/// their input order.
MeasurementPlan plan_measurement(const std::vector<PauliString>& terms,
                                 const std::vector<int>& site_of);

/// The shared support-range cost model: estimated transfer work for a sweep
/// over sites [lo, hi]. The LPT term balancer (EnergyEvaluator::term_costs)
/// and the per-term measurement sweep price work with this one function so
/// the schedule and the sweep cannot drift apart.
inline double support_cost(std::size_t lo, std::size_t hi) {
  return 1.0 + double(hi - lo + 1);
}
double support_cost(const PauliString& p);

}  // namespace q2::pauli
