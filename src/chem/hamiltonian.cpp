#include "chem/hamiltonian.hpp"

#include <unordered_set>

#include "obs/trace.hpp"

namespace q2::chem {
namespace {

constexpr double kCoeffCut = 1e-12;

// The Jordan-Wigner image of H = sum h_pq a+_p a_q + 1/2 sum (pq|rs)
// a+_{p s1} a+_{r s2} a_{s s2} a_{q s1}, each term scaled by its fragment
// weight when `fragment` is set, streamed product by product in
// (p, q, r, s, sigma, tau) order.
pauli::QubitOperator weighted_qubit_operator(
    const MoIntegrals& mo, const std::unordered_set<std::size_t>* fragment) {
  OBS_SPAN("chem/jordan_wigner");
  const std::size_t n = mo.n_orbitals();
  pauli::JordanWignerAccumulator jw(2 * n);

  auto weight1 = [&](std::size_t p, std::size_t q) {
    if (!fragment) return 1.0;
    return 0.5 * (double(fragment->count(p)) + double(fragment->count(q)));
  };
  auto weight2 = [&](std::size_t p, std::size_t q, std::size_t r,
                     std::size_t s) {
    if (!fragment) return 1.0;
    return 0.25 * (double(fragment->count(p)) + double(fragment->count(q)) +
                   double(fragment->count(r)) + double(fragment->count(s)));
  };

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      const double w = weight1(p, q);
      const double hpq = mo.h(p, q) * w;
      if (std::abs(hpq) < kCoeffCut) continue;
      for (std::size_t sigma = 0; sigma < 2; ++sigma) {
        const pauli::Ladder ops[] = {{2 * p + sigma, true},
                                     {2 * q + sigma, false}};
        jw.add(ops, hpq);
      }
    }
  }
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s) {
          const double w = weight2(p, q, r, s);
          const double g = 0.5 * mo.eri(p, q, r, s) * w;
          if (std::abs(g) < kCoeffCut) continue;
          for (std::size_t sigma = 0; sigma < 2; ++sigma)
            for (std::size_t tau = 0; tau < 2; ++tau) {
              // a+_{p sigma} a+_{r tau} a_{s tau} a_{q sigma}
              const pauli::Ladder ops[] = {{2 * p + sigma, true},
                                           {2 * r + tau, true},
                                           {2 * s + tau, false},
                                           {2 * q + sigma, false}};
              jw.add(ops, g);
            }
        }
  return jw.take();
}

}  // namespace

pauli::QubitOperator molecular_qubit_hamiltonian(const MoIntegrals& mo) {
  pauli::QubitOperator h = weighted_qubit_operator(mo, nullptr);
  h += pauli::QubitOperator::identity(2 * mo.n_orbitals(), mo.core_energy());
  h.compress(1e-10);
  return h;
}

pauli::QubitOperator fragment_weighted_hamiltonian(
    const MoIntegrals& mo, const std::vector<std::size_t>& fragment_orbitals) {
  const std::unordered_set<std::size_t> frag(fragment_orbitals.begin(),
                                             fragment_orbitals.end());
  pauli::QubitOperator h = weighted_qubit_operator(mo, &frag);
  h.compress(1e-10);
  return h;
}

pauli::QubitOperator one_body_qubit_operator(const la::RMatrix& coeff) {
  require(coeff.rows() == coeff.cols(), "one_body_qubit_operator: not square");
  OBS_SPAN("chem/jordan_wigner");
  const std::size_t n = coeff.rows();
  pauli::JordanWignerAccumulator jw(2 * n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      if (std::abs(coeff(p, q)) < kCoeffCut) continue;
      for (std::size_t sigma = 0; sigma < 2; ++sigma) {
        const pauli::Ladder ops[] = {{2 * p + sigma, true},
                                     {2 * q + sigma, false}};
        jw.add(ops, coeff(p, q));
      }
    }
  return jw.take();
}

pauli::QubitOperator number_operator(std::size_t n_spatial,
                                     const std::vector<std::size_t>& orbitals) {
  pauli::QubitOperator n_op(2 * n_spatial);
  for (std::size_t p : orbitals) {
    require(p < n_spatial, "number_operator: orbital out of range");
    n_op += pauli::jw_number(2 * n_spatial, 2 * p);
    n_op += pauli::jw_number(2 * n_spatial, 2 * p + 1);
  }
  return n_op;
}

}  // namespace q2::chem
