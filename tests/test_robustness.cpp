// Failure injection and precondition coverage: every public entry point
// must reject malformed input with a q2::Error instead of corrupting state.
#include <gtest/gtest.h>

#include "chem/element.hpp"
#include "chem/fci.hpp"
#include "chem/scf.hpp"
#include "circuit/builder.hpp"
#include "dmet/dmet_driver.hpp"
#include "pauli/jordan_wigner.hpp"
#include "sim/mps.hpp"
#include "sim/statevector.hpp"
#include "vqe/energy.hpp"
#include "vqe/uccsd.hpp"

namespace q2 {
namespace {

TEST(Robustness, UnknownBasisRejected) {
  EXPECT_THROW(chem::BasisSet::build(chem::Molecule::h2(1.4), "cc-pvqz"),
               Error);
}

TEST(Robustness, SixThirtyOneGOnlyHydrogen) {
  EXPECT_THROW(chem::BasisSet::build(chem::Molecule::h2o(), "6-31g"), Error);
}

TEST(Robustness, OpenShellRhfRejected) {
  const chem::Molecule mol({{1, {0, 0, 0}}, {1, {1.4, 0, 0}}, {1, {2.8, 0, 0}}});
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  EXPECT_THROW(chem::rhf(mol, basis, ints), Error);
}

TEST(Robustness, PauliStringOutOfRange) {
  pauli::PauliString p(3);
  EXPECT_THROW(p.set(3, pauli::P::X), Error);
  EXPECT_THROW(pauli::PauliString::parse(2, "X5"), Error);
  EXPECT_THROW(pauli::PauliString::parse(2, "Q0"), Error);
}

TEST(Robustness, QubitCountMismatchesRejected) {
  pauli::QubitOperator a(2), b(3);
  a.add(pauli::PauliString(2), 1.0);
  b.add(pauli::PauliString(3), 1.0);
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a * b, Error);
  sim::StateVector sv(2);
  EXPECT_THROW(sv.expectation(pauli::PauliString(3)), Error);
}

TEST(Robustness, FermionOperatorValidation) {
  pauli::FermionOperator f(2);
  EXPECT_THROW(f.add_term({{5, true}}, 1.0), Error);
  EXPECT_THROW(pauli::jw_creation(3, 3), Error);
  pauli::JordanWignerAccumulator jw(2);
  const pauli::Ladder out_of_range[] = {{2, true}};
  EXPECT_THROW(jw.add(out_of_range, 1.0), Error);
  const std::vector<pauli::Ladder> too_long(
      pauli::JordanWignerAccumulator::kMaxLadders + 1, {0, true});
  EXPECT_THROW(jw.add(too_long, 1.0), Error);
}

TEST(Robustness, MpsGuards) {
  EXPECT_THROW(sim::Mps(1), Error);  // needs two qubits
  sim::Mps mps(4);
  EXPECT_THROW(mps.apply(circ::make_cnot(0, 2)), Error);  // not adjacent
  circ::Circuit wrong(5);
  wrong.append(circ::make_h(0));
  EXPECT_THROW(mps.run(wrong), Error);  // qubit count mismatch
}

TEST(Robustness, StateVectorSizeWall) {
  EXPECT_THROW(sim::StateVector(40), Error);
}

TEST(Robustness, FciSpaceGuards) {
  EXPECT_THROW(chem::FciSpace(30, 2, 2), Error);  // orbital wall
  const chem::FciSpace space(3, 1, 1);
  EXPECT_THROW(space.index_of(0xFFFF), Error);  // determinant not in space
}

TEST(Robustness, ActiveSpaceWindowValidation) {
  chem::MoIntegrals mo(4, 0.0);
  EXPECT_THROW(chem::make_active_space(mo, 3, 3), Error);
}

TEST(Robustness, EnergyEvaluatorValidation) {
  // Non-Hermitian Hamiltonian rejected at construction.
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(2, 1, 1);
  pauli::QubitOperator bad(4);
  bad.add(pauli::PauliString::parse(4, "X0"), cplx(0, 1));
  EXPECT_THROW(vqe::EnergyEvaluator(ansatz.circuit, bad), Error);
  // Qubit mismatch rejected.
  pauli::QubitOperator wrong(6);
  wrong.add(pauli::PauliString(6), 1.0);
  EXPECT_THROW(vqe::EnergyEvaluator(ansatz.circuit, wrong), Error);
}

TEST(Robustness, DmetFragmentValidation) {
  dmet::DmetOptions opts;
  opts.fragments = {{0}, {0, 1}};  // atom 0 twice
  EXPECT_THROW(
      dmet::run_dmet(chem::Molecule::h2(1.4), opts, dmet::make_fci_solver()),
      Error);
}

TEST(Robustness, EquivalentFragmentShortcutMatchesFullSolve) {
  const chem::Molecule ring = chem::Molecule::hydrogen_ring(6, 1.8);
  dmet::DmetOptions full;
  full.fragments = dmet::uniform_atom_groups(6, 2);
  full.fit_chemical_potential = false;
  dmet::DmetOptions shortcut = full;
  shortcut.equivalent_fragments = true;
  const dmet::DmetResult a = dmet::run_dmet(ring, full, dmet::make_fci_solver());
  const dmet::DmetResult b =
      dmet::run_dmet(ring, shortcut, dmet::make_fci_solver());
  EXPECT_NEAR(a.energy, b.energy, 1e-8);
  EXPECT_NEAR(a.total_electrons, b.total_electrons, 1e-8);
}

TEST(Robustness, MoleculeFactoriesValidate) {
  EXPECT_THROW(chem::Molecule::hydrogen_ring(2, 1.5), Error);
  EXPECT_THROW(chem::Molecule::carbon_ring(5, 2.4, 2.4), Error);
  EXPECT_THROW(chem::atomic_number("Xx"), Error);
}

TEST(Robustness, CircuitBuilderBounds) {
  EXPECT_THROW(circ::hartree_fock_prep(2, 3), Error);
  circ::Circuit c(2);
  EXPECT_THROW(c.append(circ::make_rz(5, 0.1)), Error);
}

}  // namespace
}  // namespace q2
