// Measurement utilities: the energy evaluator's Hermiticity guard, MPS
// operator expectations against the state vector, Hadamard-test equivalence
// on MPS and state-vector backends, and qubit-wise commuting grouping
// invariants on a molecular Hamiltonian.
#include <gtest/gtest.h>

#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "circuit/builder.hpp"
#include "common/rng.hpp"
#include "pauli/grouping.hpp"
#include "sim/hadamard_test.hpp"
#include "sim/mps.hpp"
#include "sim/statevector.hpp"
#include "vqe/energy.hpp"

namespace q2::sim {
namespace {

pauli::QubitOperator h2_hamiltonian() {
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  return chem::molecular_qubit_hamiltonian(mo);
}

TEST(Expectation, MeasureEnergyRejectsNonHermitian) {
  pauli::QubitOperator bad = pauli::QubitOperator::term(2, "X0", cplx(0, 1));
  EXPECT_THROW(vqe::EnergyEvaluator(circ::Circuit(2), bad), Error);
}

TEST(Expectation, MpsAndStateVectorEnergiesMatch) {
  const pauli::QubitOperator h = h2_hamiltonian();
  const circ::Circuit prep = circ::hartree_fock_prep(4, 2);
  Mps mps(4);
  mps.run(prep);
  StateVector sv(4);
  sv.run(prep);
  EXPECT_NEAR(mps.expectation(h).real(), sv.expectation(h).real(), 1e-10);
}

TEST(HadamardTest, MatchesDirectExpectationOnMps) {
  Rng rng(12);
  const circ::Circuit prep = circ::brickwork_circuit(4, 2, rng);
  Mps direct(4, {64, 1e-12});
  direct.run(prep);
  for (const char* label : {"Z0", "X1 X2", "Y0 Z3", "X0 Y1 Z2"}) {
    const pauli::PauliString p = pauli::PauliString::parse(4, label);
    const double ht = hadamard_test_mps(prep, {}, p, {64, 1e-12});
    EXPECT_NEAR(ht, direct.expectation(p).real(), 1e-8) << label;
  }
}

TEST(HadamardTest, StateVectorBackendAgrees) {
  Rng rng(13);
  const circ::Circuit prep = circ::brickwork_circuit(3, 2, rng);
  const pauli::PauliString p = pauli::PauliString::parse(3, "Y0 X2");
  const double mps_val = hadamard_test_mps(prep, {}, p, {64, 1e-12});
  const double sv_val = hadamard_test_statevector(prep, {}, p);
  EXPECT_NEAR(mps_val, sv_val, 1e-9);
}

std::vector<pauli::PauliString> strings(const pauli::QubitOperator& op) {
  std::vector<pauli::PauliString> out;
  for (const auto& [p, c] : op.sorted_terms()) out.push_back(p);
  return out;
}

TEST(Grouping, GroupsAreQubitwiseCompatible) {
  const pauli::QubitOperator h = h2_hamiltonian();
  const std::vector<pauli::PauliString> terms = strings(h);
  const auto groups = pauli::group_qubitwise_commuting(terms);
  std::size_t total = 0;
  for (const auto& g : groups) {
    total += g.members.size();
    for (std::size_t i : g.members)
      for (std::size_t j : g.members)
        for (std::size_t q = 0; q < terms[i].n_qubits(); ++q) {
          const pauli::P a = terms[i].get(q), b = terms[j].get(q);
          EXPECT_TRUE(a == pauli::P::I || b == pauli::P::I || a == b);
        }
  }
  EXPECT_EQ(total, h.size() - 1);  // identity excluded
  // Grouping must compress the measurement count (the point of the scheme).
  EXPECT_LT(groups.size(), h.size() - 1);
}

TEST(Grouping, SingleStringsFormSingletons) {
  pauli::QubitOperator op(2);
  op += pauli::QubitOperator::term(2, "X0", 1.0);
  op += pauli::QubitOperator::term(2, "Z0", 1.0);  // incompatible with X0
  EXPECT_EQ(pauli::group_qubitwise_commuting(strings(op)).size(), 2u);
}

}  // namespace
}  // namespace q2::sim
