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

double support_cost(const PauliString& p) {
  if (p.is_identity()) return 0.0;
  const auto [lo, hi] = p.support_range();
  return support_cost(lo, hi);
}

}  // namespace q2::pauli
