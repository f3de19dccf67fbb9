// DMET tests: bath dimensions, the single-fragment == FCI identity, the H4
// ring against FCI (the Fig. 7a acceptance criterion, < 0.5 % relative
// error), chemical-potential fit behaviour and cost, the canonical-orbital
// sign gauge the warm starts rely on, the VQE fragment measured on the
// state its VQE kept, and bit identity (and equal registry totals) across
// threads and ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "adjoint_oracle.hpp"
#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "dmet/dmet_driver.hpp"
#include "linalg/gemm.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace q2::dmet {
namespace {

chem::MoIntegrals mo_for(const chem::Molecule& mol, double* hf = nullptr,
                         double* e_fci = nullptr) {
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  EXPECT_TRUE(scf.converged);
  if (hf) *hf = scf.energy;
  chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  if (e_fci) {
    const int ne = mol.n_electrons();
    *e_fci = chem::fci_ground_state(mo, ne / 2, ne / 2).energy;
  }
  return mo;
}

TEST(Bath, DimensionsBoundedByFragment) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);

  const auto frags =
      make_fragments(basis, mol.n_atoms(), uniform_atom_groups(6, 2));
  for (const Fragment& f : frags) {
    const EmbeddingBasis emb = make_bath(p, f);
    EXPECT_EQ(emb.n_fragment, 2u);
    EXPECT_LE(emb.n_bath, emb.n_fragment);
    // Embedding orbitals orthonormal.
    const la::RMatrix g = la::matmul(emb.w, emb.w, la::Op::kTrans, la::Op::kNone);
    for (std::size_t i = 0; i < g.rows(); ++i)
      for (std::size_t j = 0; j < g.cols(); ++j)
        EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-9);
  }
}

TEST(Fragmenter, UniformGroupsAndValidation) {
  const auto groups = uniform_atom_groups(7, 2);
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[3].size(), 1u);
  const chem::Molecule mol = chem::Molecule::hydrogen_chain(4, 1.6);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  EXPECT_THROW(make_fragments(basis, 4, {{0, 1}, {1, 2, 3}}), Error);
  EXPECT_THROW(make_fragments(basis, 4, {{0, 1}}), Error);
}

TEST(Dmet, SingleFragmentReproducesFci) {
  // One fragment covering everything: no bath, no environment, and the DMET
  // energy must equal FCI exactly.
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  double e_fci = 0;
  mo_for(mol, nullptr, &e_fci);

  DmetOptions opts;
  opts.fragments = {{0, 1}};
  const DmetResult r = run_dmet(mol, opts, make_fci_solver());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, e_fci, 1e-7);
  EXPECT_NEAR(r.total_electrons, 2.0, 1e-7);
}

TEST(Dmet, H4RingWithinHalfPercentOfFci) {
  // The Fig. 7(a) acceptance criterion on a small ring: relative error of
  // the DMET(FCI-solver) energy below 0.5 %.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  double e_hf = 0, e_fci = 0;
  mo_for(mol, &e_hf, &e_fci);

  DmetOptions opts;
  opts.fragments = uniform_atom_groups(4, 2);
  const DmetResult r = run_dmet(mol, opts, make_fci_solver());
  EXPECT_LT(std::abs((r.energy - e_fci) / e_fci), 5e-3);
  // DMET should improve on the mean-field reference.
  EXPECT_LT(std::abs(r.energy - e_fci), std::abs(e_hf - e_fci));
  EXPECT_NEAR(r.total_electrons, 4.0, kElectronTolerance * 10);
}

TEST(Dmet, H6RingElectronCountMatches) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 1.8);
  DmetOptions opts;
  opts.fragments = uniform_atom_groups(6, 2);
  const DmetResult r = run_dmet(mol, opts, make_fci_solver());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.total_electrons, 6.0, 1e-3);
  ASSERT_EQ(r.fragment_energies.size(), 3u);
  // Ring symmetry: all fragments equivalent.
  EXPECT_NEAR(r.fragment_energies[0], r.fragment_energies[1], 1e-5);
  EXPECT_NEAR(r.fragment_electrons[0], 2.0, 1e-3);
}

// Scripted solver for exercising the chemical-potential loop: recovers mu
// from the diagonal shift with_chemical_potential applied and reports a
// prescribed electron count N(mu) per fragment. N must be increasing in mu.
FragmentSolver make_scripted_solver(
    const std::function<double(double)>& electrons_of_mu) {
  return [electrons_of_mu](const EmbeddingProblem& prob,
                           const chem::MoIntegrals& solver_mo) {
    const std::size_t f0 = prob.fragment_orbitals.at(0);
    const double mu = prob.solver.h(f0, f0) - solver_mo.h(f0, f0);
    FragmentSolution sol;
    sol.energy = -1.0;
    sol.electrons = electrons_of_mu(mu);
    return sol;
  };
}

TEST(Dmet, MuBracketFailureIsReportedNotSilent) {
  // Regression: the bracket expansions once shared one budget between the
  // lo and hi sides, so the hi side could borrow up to 12 doublings — and a
  // bracket that genuinely failed went silently into the interval search.
  // The root here sits at mu = 100: the 6 expansions of the one-sided
  // bracket reach only mu = 0.5 + 1 + 2 + ... + 32 = 63.5, so the fit must be
  // reported failed.
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  DmetOptions opts;
  opts.fragments = {{0}, {1}};  // two fragments so the mu fit engages
  // Per fragment: N(mu) = 1 + (mu - 100)/2000, increasing, crosses 1 at 100.
  const DmetResult r = run_dmet(mol, opts, make_scripted_solver([](double mu) {
                                  return 1.0 + (mu - 100.0) / 2000.0;
                                }));
  EXPECT_FALSE(r.converged);
  // 1 initial eval + 1 bracket step + 6 expansions = 8, and no interval
  // step on the invalid bracket.
  EXPECT_LE(r.mu_iterations, 9);
}

TEST(Dmet, MuBracketWithinBudgetStillConverges) {
  // Root at mu = 5 is bracketed after 3 expansions (mu = 0.5, 1.5, 3.5,
  // then 7.5 >= 5) — inside the budget, so the fit must succeed as before.
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  DmetOptions opts;
  opts.fragments = {{0}, {1}};
  const DmetResult r = run_dmet(mol, opts, make_scripted_solver([](double mu) {
                                  return 1.0 + (mu - 5.0) / 100.0;
                                }));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.mu, 5.0, 0.01);
  EXPECT_NEAR(r.total_electrons, 2.0, kElectronTolerance * 2);
}

TEST(Dmet, ParallelFragmentSolvesBitIdenticalToSerial) {
  // Fragment solves fan out on the pool; per-fragment results land in their
  // own slots and reduce in index order, so the total energy is exactly the
  // serial one.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  DmetOptions serial_opts;
  serial_opts.fragments = uniform_atom_groups(4, 2);
  serial_opts.parallel.n_threads = 1;
  DmetOptions parallel_opts = serial_opts;
  parallel_opts.parallel.n_threads = 4;

  const DmetResult a = run_dmet(mol, serial_opts, make_fci_solver());
  const DmetResult b = run_dmet(mol, parallel_opts, make_fci_solver());
  EXPECT_EQ(a.energy, b.energy);  // byte-identical
  EXPECT_EQ(a.mu, b.mu);
  ASSERT_EQ(a.fragment_energies.size(), b.fragment_energies.size());
  for (std::size_t f = 0; f < a.fragment_energies.size(); ++f)
    EXPECT_EQ(a.fragment_energies[f], b.fragment_energies[f]);
}

TEST(Dmet, ParallelFragmentsWithVqeSolverNestsSafely) {
  // The nesting acceptance case: fragment solves (outer parallel_for) invoke
  // VQE whose term sweep is an inner parallel_for on the same pool. Must
  // complete and match the serial nested result exactly.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  vqe::VqeOptions vqe_opts;
  vqe_opts.optimizer.max_iterations = 2;

  DmetOptions serial_opts;
  serial_opts.fragments = uniform_atom_groups(4, 2);
  serial_opts.fit_chemical_potential = false;  // one evaluate() is enough
  serial_opts.parallel.n_threads = 1;
  DmetOptions parallel_opts = serial_opts;
  parallel_opts.parallel.n_threads = 4;

  vqe_opts.mps.parallel.n_threads = 1;
  const DmetResult a = run_dmet(mol, serial_opts, make_vqe_solver(vqe_opts));
  vqe_opts.mps.parallel.n_threads = 2;
  const DmetResult b = run_dmet(mol, parallel_opts, make_vqe_solver(vqe_opts));
  EXPECT_EQ(a.energy, b.energy);
}

TEST(Dmet, VqeSolverMatchesFciSolverOnH2Fragments) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  DmetOptions opts;
  opts.fragments = uniform_atom_groups(4, 2);
  // The ring is homogeneous, so mu = 0 already balances the electron count;
  // skipping the fit keeps the VQE-solver test within budget.
  opts.fit_chemical_potential = false;
  const DmetResult fci_r = run_dmet(mol, opts, make_fci_solver());

  vqe::VqeOptions vopts;
  vopts.optimizer.max_iterations = 20;
  vopts.mps.max_bond = 16;
  const DmetResult vqe_r = run_dmet(mol, opts, make_vqe_solver(vopts));
  EXPECT_NEAR(vqe_r.energy, fci_r.energy, 5e-3);
  EXPECT_NEAR(vqe_r.total_electrons, 4.0, 5e-2);
}

TEST(Dmet, ChemicalPotentialShiftsElectrons) {
  // Raising mu on a fragment pulls electrons into it (the monotonicity the
  // chemical-potential fit relies on).
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);
  const auto frags =
      make_fragments(basis, mol.n_atoms(), uniform_atom_groups(4, 2));
  const EmbeddingBasis emb = make_bath(p, frags[0]);
  const EmbeddingProblem prob = make_embedding(ints, lb, p, emb);
  const FragmentSolver solver = make_fci_solver();

  auto electrons_at = [&](double mu) {
    const chem::MoIntegrals shifted =
        with_chemical_potential(prob.solver, prob.fragment_orbitals, mu);
    return solver(prob, shifted).electrons;
  };
  EXPECT_LT(electrons_at(-0.3), electrons_at(0.3));
}

TEST(Dmet, EmbeddingProblemShapes) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);
  const auto frags =
      make_fragments(basis, mol.n_atoms(), uniform_atom_groups(6, 2));
  const EmbeddingBasis emb = make_bath(p, frags[1]);
  const EmbeddingProblem prob = make_embedding(ints, lb, p, emb);
  EXPECT_EQ(prob.solver.n_orbitals(), emb.n_fragment + emb.n_bath);
  EXPECT_EQ(prob.n_alpha + prob.n_beta, 2 * int(emb.n_fragment));
  // The solver and energy Hamiltonians share ERIs but differ in h.
  EXPECT_NEAR(prob.solver.eri(0, 0, 1, 1), prob.energy.eri(0, 0, 1, 1), 1e-12);
}

void expect_bits(double a, double b) {
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double))) << a << " vs " << b;
}

void expect_bits(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_bits(a[i], b[i]);
}

// Fragment 0 of the benchmark ring (H10, one-atom fragments, 1.8 bohr).
EmbeddingProblem ring_fragment_problem() {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(10, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);
  const auto frags =
      make_fragments(basis, mol.n_atoms(), uniform_atom_groups(10, 1));
  return make_embedding(ints, lb, p, make_bath(p, frags[0]));
}

TEST(Dmet, VqeFragmentIsMeasuredOnTheStateItsVqeKept) {
  // make_vqe_solver measures the fragment on the state its VQE's last
  // energy evaluation kept: the solve makes exactly the two-site updates of
  // the VQE alone, and its energy and electron count carry the bits of an
  // independent compiled preparation at the optimum.
  const EmbeddingProblem prob = ring_fragment_problem();
  vqe::VqeOptions opts;
  opts.mps.max_bond = 16;
  opts.mps.parallel.n_threads = 1;
  opts.optimizer.max_iterations = 4;
  obs::Counter& updates = obs::Registry::global().counter("mps.gates");
  std::uint64_t before = updates.value();
  const FragmentSolution sol = make_vqe_solver(opts)(prob, prob.solver);
  const std::uint64_t solve_updates = updates.value() - before;

  const la::RMatrix u = embedding_canonical_orbitals(prob.solver, prob.n_alpha);
  const chem::MoIntegrals canonical = rotate_orbitals(prob.solver, u);
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(
      canonical.n_orbitals(), prob.n_alpha, prob.n_beta);
  before = updates.value();
  const vqe::VqeResult r = vqe::run_vqe_on(
      chem::molecular_qubit_hamiltonian(canonical), ansatz, opts);
  EXPECT_EQ(solve_updates, updates.value() - before);
  expect_bits(sol.parameters, r.parameters);

  sim::Mps psi(ansatz.circuit.n_qubits(), opts.mps);
  psi.run(circ::compile_for_mps(ansatz.circuit), r.parameters);
  const pauli::QubitOperator hx = chem::molecular_qubit_hamiltonian(
      rotate_orbitals(
          fragment_weighted_integrals(prob.energy, prob.fragment_orbitals),
          u));
  const std::size_t m = canonical.n_orbitals();
  la::RMatrix proj(m, m);
  for (std::size_t f : prob.fragment_orbitals)
    for (std::size_t p = 0; p < m; ++p)
      for (std::size_t q = 0; q < m; ++q) proj(p, q) += u(f, p) * u(f, q);
  expect_bits(sol.energy, psi.expectation(hx).real());
  expect_bits(sol.electrons,
              psi.expectation(chem::one_body_qubit_operator(proj)).real());
}

TEST(Dmet, RingFragmentAdjointGradientMatchesReferences) {
  // The benchmark ring's fragment VQE (H10, one-atom fragments, D = 16) is
  // exact: 4 qubits never need a bond above 4, so its gradients take the
  // adjoint path. On one fragment's canonicalized embedding problem, as
  // make_vqe_solver builds it, the adjoint gradient matches the
  // parameter-shift rule to 1e-10, central differences to 1e-7 and the
  // two-walk pass (tests/adjoint_oracle.hpp) to 1e-12.
  const EmbeddingProblem prob = ring_fragment_problem();
  const chem::MoIntegrals canonical = rotate_orbitals(
      prob.solver, embedding_canonical_orbitals(prob.solver, prob.n_alpha));
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(
      canonical.n_orbitals(), prob.n_alpha, prob.n_beta);
  ASSERT_EQ(ansatz.circuit.n_qubits(), 4);
  sim::MpsOptions mps;
  mps.max_bond = 16;
  const vqe::EnergyEvaluator eval(
      ansatz.circuit, chem::molecular_qubit_hamiltonian(canonical), mps);
  std::vector<double> x = vqe::initial_parameters(ansatz, 0.1);
  for (std::size_t k = 0; k < x.size(); ++k) x[k] += 0.05 * double(k + 1);
  const std::optional<std::vector<double>> adjoint = eval.adjoint_gradient(x);
  ASSERT_TRUE(adjoint.has_value());
  const std::vector<double> ps = eval.parameter_shift_gradient(x);
  const std::vector<double> fd = eval.gradient(x, 1e-5);
  const std::vector<double> oracle =
      test::two_walk_adjoint_gradient(eval, mps, x);
  for (std::size_t k = 0; k < ps.size(); ++k) {
    EXPECT_NEAR((*adjoint)[k], ps[k], 1e-10) << "entry " << k;
    EXPECT_NEAR((*adjoint)[k], fd[k], 1e-7) << "entry " << k;
    EXPECT_NEAR((*adjoint)[k], oracle[k], 1e-12) << "entry " << k;
  }
}


// Energy, µ and the per-fragment arrays carry the same bits.
void expect_same_fit(const DmetResult& a, const DmetResult& b) {
  expect_bits(a.energy, b.energy);
  expect_bits(a.mu, b.mu);
  expect_bits(a.total_electrons, b.total_electrons);
  expect_bits(a.fragment_energies, b.fragment_energies);
  expect_bits(a.fragment_electrons, b.fragment_electrons);
  EXPECT_EQ(a.mu_iterations, b.mu_iterations);
  EXPECT_EQ(a.converged, b.converged);
}

// run_dmet_distributed on `ranks` ranks; every rank's result must carry the
// same bits, and rank 0's is returned.
DmetResult run_on_ranks(const chem::Molecule& mol, const DmetOptions& opts,
                        const FragmentSolver& solver, int ranks, int groups) {
  std::vector<DmetResult> results(static_cast<std::size_t>(ranks));
  par::World world(ranks);
  world.run([&](par::Comm& comm) {
    results[std::size_t(comm.rank())] =
        run_dmet_distributed(mol, opts, solver, comm, groups);
  });
  for (int r = 1; r < ranks; ++r) expect_same_fit(results[0], results[r]);
  return results[0];
}

TEST(Dmet, DistributedMatchesSerial) {
  // Each fragment's values reach every rank as its owner's bits, so the
  // distributed fit is bit-identical to the serial one.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(4, 1.8);
  DmetOptions opts;
  opts.fragments = uniform_atom_groups(4, 2);
  const DmetResult serial = run_dmet(mol, opts, make_fci_solver());
  const DmetResult dist = run_on_ranks(mol, opts, make_fci_solver(), 4, 2);
  expect_same_fit(serial, dist);
}

TEST(Dmet, CanonicalOrbitalsHaveADeterministicSignGauge) {
  // Each column's largest-magnitude entry is positive (the lowest row among
  // magnitudes tied within 1e-10 — symmetric fragments tie), so the
  // canonical orbitals at two nearby chemical potentials agree column by
  // column and a VQE optimum from one is a good start at the other.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(10, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const LowdinBasis lb = make_lowdin(ints.overlap);
  const la::RMatrix p = oao_density(lb, scf.density);
  for (const Fragment& frag :
       make_fragments(basis, mol.n_atoms(), uniform_atom_groups(10, 2))) {
    const EmbeddingProblem prob =
        make_embedding(ints, lb, p, make_bath(p, frag));
    auto orbitals_at = [&](double mu) {
      return embedding_canonical_orbitals(
          with_chemical_potential(prob.solver, prob.fragment_orbitals, mu),
          prob.n_alpha);
    };
    const la::RMatrix u0 = orbitals_at(0.0), u1 = orbitals_at(1e-3);
    const std::size_t m = u0.rows();
    for (std::size_t j = 0; j < m; ++j) {
      double largest = 0;
      for (std::size_t i = 0; i < m; ++i)
        largest = std::max(largest, std::abs(u0(i, j)));
      std::size_t top = 0;
      while (std::abs(u0(top, j)) < largest - 1e-10) ++top;
      EXPECT_GT(u0(top, j), 0.0) << "column " << j;
      double overlap = 0;
      for (std::size_t i = 0; i < m; ++i) overlap += u0(i, j) * u1(i, j);
      EXPECT_GT(overlap, 0.9) << "column " << j;
    }
  }
}

// Wraps a solver and records (h_00, µ) of every call — h_00 tells the
// fragments apart, µ is recovered from the diagonal shift.
class MuRecorder {
 public:
  explicit MuRecorder(FragmentSolver inner) : inner_(std::move(inner)) {}
  FragmentSolver solver() {
    return [this](const EmbeddingProblem& prob,
                  const chem::MoIntegrals& solver_mo) {
      const std::size_t f0 = prob.fragment_orbitals.at(0);
      const double h00 = prob.solver.h(f0, f0);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        calls_.emplace_back(h00, h00 - solver_mo.h(f0, f0));
      }
      return inner_(prob, solver_mo);
    };
  }
  const std::vector<std::pair<double, double>>& calls() const {
    return calls_;
  }

 private:
  FragmentSolver inner_;
  std::mutex mutex_;
  std::vector<std::pair<double, double>> calls_;
};

TEST(Dmet, FitTakesFewEvaluationsAtBenchBondLengths) {
  // The benchmark ring (H10, one-atom fragments) at its five bond lengths:
  // N(µ) is nearly linear at the root, so the Illinois fit needs a handful
  // of sweeps and never evaluates a µ twice.
  for (double bond : {1.8, 1.801, 1.797, 1.805, 1.796}) {
    const chem::Molecule mol = chem::Molecule::hydrogen_ring(10, bond);
    DmetOptions opts;
    opts.parallel.n_threads = 4;
    MuRecorder recorder(make_fci_solver());
    const DmetResult r = run_dmet(mol, opts, recorder.solver());
    EXPECT_TRUE(r.converged) << bond;
    EXPECT_LE(r.mu_iterations, 6) << bond;
    EXPECT_LE(std::abs(r.total_electrons - 10.0), 1e-5) << bond;
    // Sweeps run one after another, 10 solves each; symmetric fragments may
    // share h_00, so compare the distinct pairs of each sweep.
    ASSERT_EQ(recorder.calls().size(), std::size_t(10 * r.mu_iterations));
    std::set<std::pair<double, double>> seen;
    for (int k = 0; k < r.mu_iterations; ++k) {
      const auto first = recorder.calls().begin() + 10 * k;
      const std::set<std::pair<double, double>> sweep(first, first + 10);
      for (const auto& call : sweep)
        EXPECT_TRUE(seen.insert(call).second)
            << "µ " << call.second << " evaluated twice, bond " << bond;
    }
  }
}

TEST(Dmet, RunReportRecordsFitPhaseAndWarmStart) {
  // Each dmet_cycle record names the fit's phase and the µ whose optima
  // warm-started the sweep: none for µ = 0, µ = 0 for the bracket step, and
  // a bracket end (the nearest evaluated µ) for every Illinois step.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 2.2);
  DmetOptions opts;
  opts.fragments = uniform_atom_groups(6, 2);
  const std::string path = testing::TempDir() + "q2_dmet_fit.jsonl";
  ASSERT_TRUE(obs::RunReport::global().open(path));
  const DmetResult r = run_dmet(mol, opts, make_fci_solver());
  obs::RunReport::global().close();

  std::vector<obs::Json> cycles;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    obs::Json j = obs::Json::parse(line);
    if (j.at("kind").string == "dmet_cycle") cycles.push_back(std::move(j));
  }
  std::remove(path.c_str());
  ASSERT_EQ(int(cycles.size()), r.mu_iterations);
  ASSERT_GE(cycles.size(), 3u);
  EXPECT_EQ(cycles[0].at("phase").string, "bracket");
  EXPECT_EQ(cycles[0].at("warm_start_mu").type, obs::Json::kNull);
  EXPECT_EQ(cycles[1].at("phase").string, "bracket");
  EXPECT_EQ(cycles[1].at("warm_start_mu").number, 0.0);
  for (std::size_t k = 2; k < cycles.size(); ++k) {
    EXPECT_EQ(cycles[k].at("phase").string, "secant");
    const double mu = cycles[k].at("mu").number;
    double nearest = cycles[0].at("mu").number;
    for (std::size_t j = 1; j < k; ++j) {
      const double mj = cycles[j].at("mu").number;
      if (std::abs(mj - mu) < std::abs(nearest - mu)) nearest = mj;
    }
    EXPECT_EQ(cycles[k].at("warm_start_mu").number, nearest) << "cycle " << k;
  }
}

TEST(Dmet, FittedVqeRingIsBitIdenticalAcrossThreadsAndRanks) {
  // The benchmark ring with the VQE solver: the fit and the warm-start table
  // follow the deterministic µ sequence, so 1 thread, 4 threads and 4 ranks
  // in 2 groups produce the same bits, within 0.1 mHa of DMET-FCI.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(10, 1.8);
  vqe::VqeOptions vopts;
  vopts.mps.max_bond = 16;
  vopts.optimizer.max_iterations = 25;
  DmetOptions opts;
  opts.parallel.n_threads = 1;
  const DmetResult serial = run_dmet(mol, opts, make_vqe_solver(vopts));
  opts.parallel.n_threads = 4;
  const DmetResult threaded = run_dmet(mol, opts, make_vqe_solver(vopts));
  opts.parallel.n_threads = 1;
  const DmetResult ranked =
      run_on_ranks(mol, opts, make_vqe_solver(vopts), 4, 2);
  const DmetResult fci = run_dmet(mol, opts, make_fci_solver());

  EXPECT_TRUE(serial.converged);
  EXPECT_LE(std::abs(serial.total_electrons - 10.0), 1e-5);
  EXPECT_LE(std::abs(serial.energy - fci.energy), 1e-4);
  expect_same_fit(serial, threaded);
  expect_same_fit(serial, ranked);
}

// What a run adds to the registry: the counters a fragment VQE's work
// drives, and the mps.bond_dim histogram's count, buckets and sum.
struct RegistryDelta {
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t bond_count = 0;
  std::vector<std::uint64_t> bond_buckets;
  double bond_sum = 0.0;
};

RegistryDelta registry_delta(const std::function<void()>& run) {
  static const char* const kCounters[] = {
      "mps.gates",  "la.svd.truncated_calls", "la.svd.sweeps",
      "mps.transfer_site_ops", "work.flops", "work.bytes"};
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  run();
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  RegistryDelta d;
  for (const char* name : kCounters) {
    const auto was = before.counters.find(name);
    d.counters[name] = after.counters.at(name) -
                       (was == before.counters.end() ? 0 : was->second);
  }
  const obs::HistogramSnapshot& bond = after.histograms.at("mps.bond_dim");
  d.bond_count = bond.count;
  d.bond_buckets = bond.counts;
  d.bond_sum = bond.sum;
  if (const auto was = before.histograms.find("mps.bond_dim");
      was != before.histograms.end()) {
    d.bond_count -= was->second.count;
    for (std::size_t i = 0; i < d.bond_buckets.size(); ++i)
      d.bond_buckets[i] -= was->second.counts[i];
    d.bond_sum -= was->second.sum;
  }
  return d;
}

TEST(Dmet, FittedVqeRingRegistryTotalsAreThreadCountInvariant) {
  // The fitted VQE ring does the same work at 1 and 4 threads (the bits
  // match, above), so the totals it adds to the registry must match too,
  // however its fragment workers' writes interleave.
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(10, 1.8);
  vqe::VqeOptions vopts;
  vopts.mps.max_bond = 16;
  vopts.optimizer.max_iterations = 25;
  DmetOptions opts;
  opts.parallel.n_threads = 1;
  const RegistryDelta serial =
      registry_delta([&] { run_dmet(mol, opts, make_vqe_solver(vopts)); });
  opts.parallel.n_threads = 4;
  const RegistryDelta threaded =
      registry_delta([&] { run_dmet(mol, opts, make_vqe_solver(vopts)); });

  for (const auto& [name, total] : serial.counters) {
    EXPECT_GT(total, 0u) << name;
    EXPECT_EQ(total, threaded.counters.at(name)) << name;
  }
  EXPECT_GT(serial.bond_count, 0u);
  EXPECT_EQ(serial.bond_count, threaded.bond_count);
  EXPECT_EQ(serial.bond_buckets, threaded.bond_buckets);
  EXPECT_EQ(serial.bond_sum, threaded.bond_sum);
}

}  // namespace
}  // namespace q2::dmet
