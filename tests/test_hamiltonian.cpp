// Qubit-Hamiltonian tests: the H2/STO-3G Hamiltonian has the 15 Pauli terms
// of Fig. 5, its expectation on the HF state reproduces the SCF energy, the
// fragment-weighted operators tile back to the full Hamiltonian, and the
// streamed builders equal the ladder-product path coefficient for
// coefficient.
#include <gtest/gtest.h>

#include <unordered_set>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "circuit/builder.hpp"
#include "jw_oracle.hpp"
#include "sim/statevector.hpp"

namespace q2::chem {
namespace {

struct Solved {
  ScfResult scf;
  MoIntegrals mo;
};

Solved solve(const Molecule& mol) {
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const IntegralTables ints = compute_integrals(mol, basis);
  Solved s;
  s.scf = rhf(mol, basis, ints);
  EXPECT_TRUE(s.scf.converged);
  s.mo = transform_to_mo(ints, s.scf.coefficients, s.scf.nuclear_repulsion);
  return s;
}

TEST(Hamiltonian, H2HasFifteenPauliTerms) {
  const Solved s = solve(Molecule::h2(1.4));
  const pauli::QubitOperator h = molecular_qubit_hamiltonian(s.mo);
  EXPECT_EQ(h.n_qubits(), 4u);
  EXPECT_EQ(h.size(), 15u);  // Fig. 5: 15 Pauli strings incl. identity
  EXPECT_TRUE(h.is_hermitian());
}

TEST(Hamiltonian, HartreeFockExpectationMatchesScf) {
  for (const auto& mol : {Molecule::h2(1.4), Molecule::hydrogen_chain(4, 1.8)}) {
    const Solved s = solve(mol);
    const pauli::QubitOperator h = molecular_qubit_hamiltonian(s.mo);
    sim::StateVector sv(int(h.n_qubits()));
    sv.run(circ::hartree_fock_prep(int(h.n_qubits()), mol.n_electrons()));
    EXPECT_NEAR(sv.expectation(h).real(), s.scf.energy, 1e-8)
        << "atoms=" << mol.n_atoms();
  }
}

TEST(Hamiltonian, ParticleNumberSymmetry) {
  // [H, N] = 0: the Hamiltonian commutes with the total number operator.
  const Solved s = solve(Molecule::h2(1.4));
  const pauli::QubitOperator h = molecular_qubit_hamiltonian(s.mo);
  std::vector<std::size_t> all;
  for (std::size_t p = 0; p < s.mo.n_orbitals(); ++p) all.push_back(p);
  const pauli::QubitOperator n_op = number_operator(s.mo.n_orbitals(), all);
  pauli::QubitOperator comm = h * n_op - n_op * h;
  comm.compress(1e-9);
  EXPECT_EQ(comm.size(), 0u);
}

TEST(Hamiltonian, TermCountScalesAsN4) {
  // Paper §III-D: O(Nq^4) Pauli strings. Check growth between H2 and H4.
  const Solved h2 = solve(Molecule::h2(1.4));
  const Solved h4 = solve(Molecule::hydrogen_chain(4, 1.8));
  const auto n2 = molecular_qubit_hamiltonian(h2.mo).size();
  const auto n4 = molecular_qubit_hamiltonian(h4.mo).size();
  EXPECT_GT(n4, 6 * n2);   // 2^4 = 16x nominal growth, with symmetry savings
  EXPECT_LT(n4, 30 * n2);
}

TEST(Hamiltonian, FragmentWeightsTileToFullOperator) {
  const Solved s = solve(Molecule::hydrogen_chain(4, 1.8));
  const std::size_t n = s.mo.n_orbitals();
  // Two fragments covering all orbitals: weighted Hamiltonians must sum to
  // the full electronic Hamiltonian (without core energy).
  std::vector<std::size_t> frag_a, frag_b;
  for (std::size_t p = 0; p < n; ++p) (p < n / 2 ? frag_a : frag_b).push_back(p);
  pauli::QubitOperator sum = fragment_weighted_hamiltonian(s.mo, frag_a);
  sum += fragment_weighted_hamiltonian(s.mo, frag_b);
  pauli::QubitOperator full = molecular_qubit_hamiltonian(s.mo);
  full -= pauli::QubitOperator::identity(2 * n, s.mo.core_energy());
  sum -= full;
  sum.compress(1e-8);
  EXPECT_EQ(sum.size(), 0u);
}

TEST(Hamiltonian, NumberOperatorCountsElectrons) {
  const Solved s = solve(Molecule::h2(1.4));
  std::vector<std::size_t> all{0, 1};
  const pauli::QubitOperator n_op = number_operator(2, all);
  sim::StateVector sv(4);
  sv.run(circ::hartree_fock_prep(4, 2));
  EXPECT_NEAR(sv.expectation(n_op).real(), 2.0, 1e-10);
}

TEST(Hamiltonian, GroundEnergyBelowHf) {
  const Solved s = solve(Molecule::h2(1.4));
  const pauli::QubitOperator h = molecular_qubit_hamiltonian(s.mo);
  std::vector<cplx> guess(16, cplx{});
  guess[0b0011] = 1.0;
  const double e0 = sim::qubit_ground_energy(h, guess);
  EXPECT_LT(e0, s.scf.energy);
}

// The product path the streamed builders replace: the fermionic operator
// of the (fragment-weighted) Hamiltonian, term by term in (p, q, r, s,
// sigma, tau) order, through the ladder-product Jordan-Wigner oracle.
pauli::FermionOperator weighted_fermion_operator(
    const MoIntegrals& mo, const std::vector<std::size_t>* fragment_orbitals) {
  const std::size_t n = mo.n_orbitals();
  std::unordered_set<std::size_t> frag;
  if (fragment_orbitals)
    frag.insert(fragment_orbitals->begin(), fragment_orbitals->end());
  auto in = [&](std::size_t p) { return double(frag.count(p)); };
  pauli::FermionOperator op(2 * n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      const double w = fragment_orbitals ? 0.5 * (in(p) + in(q)) : 1.0;
      const double hpq = mo.h(p, q) * w;
      if (std::abs(hpq) < 1e-12) continue;
      for (std::size_t sigma = 0; sigma < 2; ++sigma)
        op.add_term({{2 * p + sigma, true}, {2 * q + sigma, false}}, hpq);
    }
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s) {
          const double w =
              fragment_orbitals ? 0.25 * (in(p) + in(q) + in(r) + in(s)) : 1.0;
          const double g = 0.5 * mo.eri(p, q, r, s) * w;
          if (std::abs(g) < 1e-12) continue;
          for (std::size_t sigma = 0; sigma < 2; ++sigma)
            for (std::size_t tau = 0; tau < 2; ++tau)
              op.add_term({{2 * p + sigma, true},
                           {2 * r + tau, true},
                           {2 * s + tau, false},
                           {2 * q + sigma, false}},
                          g);
        }
  return op;
}

TEST(Hamiltonian, StreamedMatchesProductPath) {
  for (const auto& mol :
       {Molecule::h2(1.4), Molecule::hydrogen_chain(4, 1.8),
        Molecule::hydrogen_chain(6, 1.8)}) {
    const Solved s = solve(mol);
    const std::size_t n = s.mo.n_orbitals();
    pauli::QubitOperator want =
        test::ladder_product_jw(weighted_fermion_operator(s.mo, nullptr));
    want += pauli::QubitOperator::identity(2 * n, s.mo.core_energy());
    want.compress(1e-10);
    test::expect_same_terms(molecular_qubit_hamiltonian(s.mo), want);
  }

  const Solved s = solve(Molecule::hydrogen_chain(4, 1.8));
  const std::vector<std::size_t> frag{1, 2};
  pauli::QubitOperator want =
      test::ladder_product_jw(weighted_fermion_operator(s.mo, &frag));
  want.compress(1e-10);
  test::expect_same_terms(fragment_weighted_hamiltonian(s.mo, frag), want);

  // A one-body operator with every entry set, and one below the cut.
  const std::size_t n = s.mo.n_orbitals();
  la::RMatrix c(n, n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) c(p, q) = s.mo.h(p, q) + 0.1 * double(p);
  c(0, n - 1) = 1e-13;
  pauli::FermionOperator one(2 * n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      if (std::abs(c(p, q)) < 1e-12) continue;
      for (std::size_t sigma = 0; sigma < 2; ++sigma)
        one.add_term({{2 * p + sigma, true}, {2 * q + sigma, false}}, c(p, q));
    }
  test::expect_same_terms(one_body_qubit_operator(c),
                          test::ladder_product_jw(one));
}

}  // namespace
}  // namespace q2::chem
