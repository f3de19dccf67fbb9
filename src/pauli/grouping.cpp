#include "pauli/grouping.hpp"

#include <algorithm>

namespace q2::pauli {

bool qubitwise_compatible(const PauliString& a, const PauliString& b) {
  require(a.n_qubits() == b.n_qubits(),
          "qubitwise_compatible: qubit count mismatch");
  const auto &xa = a.x_mask(), &za = a.z_mask();
  const auto &xb = b.x_mask(), &zb = b.z_mask();
  for (std::size_t w = 0; w < xa.size(); ++w) {
    // Conflict on a qubit: both non-identity and the (x, z) labels differ.
    const std::uint64_t na = xa[w] | za[w], nb = xb[w] | zb[w];
    if (na & nb & ((xa[w] ^ xb[w]) | (za[w] ^ zb[w]))) return false;
  }
  return true;
}

std::vector<MeasurementGroup> group_qubitwise_commuting(
    const std::vector<PauliString>& terms) {
  std::vector<MeasurementGroup> groups;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const PauliString& p = terms[i];
    if (p.is_identity()) continue;
    const auto [plo, phi] = p.support_range();
    MeasurementGroup* home = nullptr;
    for (auto& g : groups) {
      if (qubitwise_compatible(p, g.basis)) {
        home = &g;
        break;
      }
    }
    if (!home) {
      groups.push_back({});
      home = &groups.back();
      home->basis = PauliString(p.n_qubits());
      home->lo = plo;
      home->hi = phi;
    } else {
      home->lo = std::min(home->lo, plo);
      home->hi = std::max(home->hi, phi);
    }
    // Fold p into the union basis: compatible strings only ever widen it.
    for (std::size_t q = plo; q <= phi; ++q) {
      const P pq = p.get(q);
      if (pq != P::I) home->basis.set(q, pq);
    }
    home->members.push_back(i);
  }
  return groups;
}

MeasurementPlan plan_measurement(const std::vector<PauliString>& terms,
                                 const std::vector<int>& site_of) {
  MeasurementPlan plan;
  plan.site_of = site_of;
  std::vector<MeasurementPlan::Entry> order;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    require(terms[i].n_qubits() == site_of.size(),
            "plan_measurement: qubit count mismatch");
    if (terms[i].is_identity()) {
      plan.identity_terms.push_back(i);
      continue;
    }
    const PauliString p = terms[i].permuted(site_of);
    const auto [lo, hi] = p.support_range();
    order.push_back({i, lo, hi, 0, plan.letters.size()});
    for (std::size_t s = lo; s <= hi; ++s) plan.letters.push_back(p.get(s));
  }
  auto word = [&](const MeasurementPlan::Entry& e) {
    const P* first = plan.letters.data() + e.letters;
    return std::pair{first, first + (e.hi - e.lo + 1)};
  };
  // In lexicographic order, the longest prefix a string shares with any
  // string before it is the one it shares with its predecessor, so counting
  // each entry's letters beyond that prefix counts every distinct
  // (start, prefix) pair exactly once.
  std::stable_sort(order.begin(), order.end(),
                   [&](const MeasurementPlan::Entry& a,
                       const MeasurementPlan::Entry& b) {
                     if (a.lo != b.lo) return a.lo < b.lo;
                     const auto [a0, a1] = word(a);
                     const auto [b0, b1] = word(b);
                     return std::lexicographical_compare(a0, a1, b0, b1);
                   });
  for (std::size_t k = 0; k < order.size(); ++k) {
    MeasurementPlan::Entry e = order[k];
    if (k == 0 || order[k - 1].lo != e.lo) {
      plan.blocks.push_back({k, k, 0});
    } else {
      const auto [a0, a1] = word(order[k - 1]);
      const auto [b0, b1] = word(e);
      e.shared = std::size_t(std::mismatch(a0, a1, b0, b1).first - a0);
    }
    MeasurementPlan::Block& block = plan.blocks.back();
    block.end = k + 1;
    block.transfers += (e.hi - e.lo + 1) - e.shared;
    plan.transfers += (e.hi - e.lo + 1) - e.shared;
    plan.entries.push_back(e);
  }
  return plan;
}

double support_cost(const PauliString& p) {
  if (p.is_identity()) return 0.0;
  const auto [lo, hi] = p.support_range();
  return support_cost(lo, hi);
}

}  // namespace q2::pauli
