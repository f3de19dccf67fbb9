#include "vqe/uccsd.hpp"

#include <cmath>
#include <cstdlib>

#include "circuit/builder.hpp"

namespace q2::vqe {
namespace {

// Append the Trotter factor exp(theta_k * (T - T+)) for one excitation,
// binding every Pauli rotation to parameter `param`.
void append_excitation(circ::Circuit& c, const Excitation& ex, int param,
                       std::size_t n_qubits, double step_fraction) {
  pauli::FermionOperator gen(n_qubits);
  std::vector<pauli::Ladder> fwd;
  for (std::size_t a : ex.to) fwd.push_back({a, true});
  for (auto it = ex.from.rbegin(); it != ex.from.rend(); ++it)
    fwd.push_back({*it, false});
  gen.add_term(fwd, 1.0);
  pauli::FermionOperator dag = gen.adjoint();
  dag *= -1.0;
  gen += dag;

  const pauli::QubitOperator q = pauli::jordan_wigner(gen);
  // Anti-Hermitian generator: coefficients are purely imaginary, so
  // exp(theta G) = prod_k exp(i (theta Im c_k) P_k), one RZ-ladder each.
  for (const auto& [p, coeff] : q.sorted_terms()) {
    require(std::abs(coeff.real()) < 1e-10,
            "uccsd: generator is not anti-Hermitian");
    // exp(-i theta/2 P) convention; each Trotter step carries theta / steps.
    const double scale = -2.0 * coeff.imag() * step_fraction;
    if (scale == 0.0) continue;
    circ::append_pauli_evolution_param(c, p, param, scale);
  }
}

int spatial_distance(const Excitation& ex) {
  int lo = 1 << 30, hi = -1;
  auto fold = [&](std::size_t so) {
    const int p = int(so / 2);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  };
  for (auto s : ex.from) fold(s);
  for (auto s : ex.to) fold(s);
  return hi - lo;
}

}  // namespace

UccsdAnsatz build_uccsd(std::size_t n_spatial, int n_alpha, int n_beta,
                        const UccsdOptions& options) {
  require(n_alpha == n_beta, "build_uccsd: closed-shell only");
  const int nq = int(2 * n_spatial);
  const int ne = n_alpha + n_beta;

  UccsdAnsatz ansatz;
  ansatz.n_qubits = nq;
  ansatz.n_electrons = ne;
  if (options.local_generalized) {
    // Localized-orbital reference: electron pairs sit on alternating sites
    // (half-filled chain), so the local excitations act non-trivially along
    // the whole chain.
    ansatz.circuit = circ::Circuit(nq);
    for (int k = 0; k < ne / 2; ++k) {
      const int site = std::min(2 * k, int(n_spatial) - 1);
      ansatz.circuit.append(circ::make_x(2 * site));
      ansatz.circuit.append(circ::make_x(2 * site + 1));
    }
  } else {
    ansatz.circuit = circ::hartree_fock_prep(nq, ne);
  }

  // Occupied / virtual spin orbitals under the interleaved convention; the
  // HF preparation fills qubits [0, ne), i.e. spatial orbitals [0, n_occ).
  std::vector<std::size_t> occ, virt;
  for (std::size_t q = 0; q < std::size_t(nq); ++q)
    (q < std::size_t(ne) ? occ : virt).push_back(q);

  std::vector<Excitation> excitations;
  const int window = options.distance_window;
  auto within_window = [&](const Excitation& ex) {
    return window < 0 || spatial_distance(ex) <= window;
  };
  if (options.local_generalized) {
    // Orbital-neighbourhood generalized excitations: O(n * window) terms.
    const std::size_t w = window < 0 ? 1 : std::size_t(std::max(1, window));
    for (std::size_t p = 0; p < n_spatial; ++p) {
      for (std::size_t q = p + 1; q <= std::min(p + w, n_spatial - 1); ++q) {
        for (std::size_t sigma = 0; sigma < 2; ++sigma)
          excitations.push_back({{2 * p + sigma}, {2 * q + sigma}});
        // Pair double: (p alpha, p beta) -> (q alpha, q beta).
        excitations.push_back({{2 * p, 2 * p + 1}, {2 * q, 2 * q + 1}});
      }
    }
  } else {
    for (std::size_t i : occ)
      for (std::size_t a : virt) {
        if ((i ^ a) & 1) continue;  // spin conserving
        const Excitation ex{{i}, {a}};
        if (within_window(ex)) excitations.push_back(ex);
      }
    for (std::size_t x = 0; x < occ.size(); ++x)
      for (std::size_t y = x + 1; y < occ.size(); ++y)
        for (std::size_t u = 0; u < virt.size(); ++u)
          for (std::size_t v = u + 1; v < virt.size(); ++v) {
            const std::size_t i = occ[x], j = occ[y];
            const std::size_t a = virt[u], b = virt[v];
            if (((i & 1) + (j & 1)) != ((a & 1) + (b & 1))) continue;
            const Excitation ex{{i, j}, {a, b}};
            if (within_window(ex)) excitations.push_back(ex);
          }
  }

  ansatz.n_parameters = excitations.size();
  const double step_fraction = 1.0 / double(options.trotter_steps);
  for (int step = 0; step < options.trotter_steps; ++step) {
    for (std::size_t k = 0; k < excitations.size(); ++k)
      append_excitation(ansatz.circuit, excitations[k], int(k),
                        std::size_t(nq), step_fraction);
  }
  ansatz.excitations = std::move(excitations);
  return ansatz;
}

std::vector<double> initial_parameters(const UccsdAnsatz& ansatz, double scale) {
  std::vector<double> p(ansatz.n_parameters);
  for (std::size_t k = 0; k < p.size(); ++k) {
    // Deterministic, sign-alternating seed: reproducible and off-stationary.
    p[k] = scale * ((k % 2 == 0) ? 1.0 : -1.0) / double(k / 2 + 1);
  }
  return p;
}

}  // namespace q2::vqe
