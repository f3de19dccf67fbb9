// End-to-end VQE tests: H2 to chemical accuracy against FCI, agreement of
// the measurement paths (direct vs Hadamard test) and storage modes, the
// optimizers on analytic functions, the prefix-sharing gradients against
// plain finite differences, and distributed == threaded == serial
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "parallel/comm.hpp"
#include "vqe/vqe_driver.hpp"

namespace q2::vqe {
namespace {

struct Solved {
  chem::ScfResult scf;
  chem::MoIntegrals mo;
};

Solved solve(const chem::Molecule& mol) {
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  Solved s;
  s.scf = chem::rhf(mol, basis, ints);
  EXPECT_TRUE(s.scf.converged);
  s.mo = chem::transform_to_mo(ints, s.scf.coefficients,
                               s.scf.nuclear_repulsion);
  return s;
}

// memcmp, not ==: the contract is the same bytes.
void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

void expect_same_result(const VqeResult& a, const VqeResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  expect_same_bits({a.energy}, {b.energy}, what + " energy");
  expect_same_bits(a.parameters, b.parameters, what + " parameters");
  expect_same_bits(a.history, b.history, what + " history");
}

TEST(Optimizer, AdamQuadraticBowl) {
  EnergyFn f = [](const std::vector<double>& x) {
    return (x[0] - 1) * (x[0] - 1) + 2 * (x[1] + 0.5) * (x[1] + 0.5);
  };
  GradientFn g = [&](const std::vector<double>& x) {
    return finite_difference_gradient(f, x);
  };
  OptimizerOptions opts;
  opts.max_iterations = 500;
  const OptimizerResult r = minimize_adam(f, g, {0, 0}, opts);
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-2);
  EXPECT_NEAR(r.parameters[1], -0.5, 1e-2);
}

TEST(Optimizer, LbfgsRosenbrockish) {
  EnergyFn f = [](const std::vector<double>& x) {
    const double a = 1 - x[0], b = x[1] - x[0] * x[0];
    return a * a + 10 * b * b;
  };
  GradientFn g = [&](const std::vector<double>& x) {
    return finite_difference_gradient(f, x);
  };
  OptimizerOptions opts;
  opts.max_iterations = 200;
  opts.gradient_tolerance = 1e-8;
  const OptimizerResult r = minimize_lbfgs(f, g, {-1.0, 1.0}, opts);
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-4);
  EXPECT_NEAR(r.parameters[1], 1.0, 1e-4);
}

TEST(Optimizer, LbfgsConvergesFasterThanAdamOnQuadratic) {
  EnergyFn f = [](const std::vector<double>& x) {
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += (i + 1) * x[i] * x[i];
    return s;
  };
  GradientFn g = [&](const std::vector<double>& x) {
    return finite_difference_gradient(f, x);
  };
  OptimizerOptions opts;
  opts.max_iterations = 100;
  const OptimizerResult lb = minimize_lbfgs(f, g, {1, 1, 1, 1}, opts);
  EXPECT_LT(lb.energy, 1e-8);
  EXPECT_LT(lb.iterations, 30);
}

TEST(Optimizer, SpsaReducesEnergy) {
  EnergyFn f = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  Rng rng(5);
  OptimizerOptions opts;
  opts.max_iterations = 150;
  opts.learning_rate = 0.3;
  const OptimizerResult r = minimize_spsa(f, {1.0, -1.0}, rng, opts);
  EXPECT_LT(r.energy, 0.3);
}

TEST(EnergyEvaluator, HfEnergyAtZeroParameters) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const EnergyEvaluator eval(ansatz.circuit, h);
  const std::vector<double> zeros(ansatz.n_parameters, 0.0);
  EXPECT_NEAR(eval.energy(zeros), s.scf.energy, 1e-8);
}

TEST(EnergyEvaluator, MeasurementModesAgree) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);

  const EnergyEvaluator direct(ansatz.circuit, h, {},
                               MeasurementMode::kDirect);
  const EnergyEvaluator hadamard(ansatz.circuit, h, {},
                                 MeasurementMode::kHadamardTest);
  EXPECT_NEAR(direct.energy(params), hadamard.energy(params), 1e-7);
}

TEST(EnergyEvaluator, StorageModesAgreeAndDifferInMemory) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);

  const EnergyEvaluator efficient(ansatz.circuit, h, {},
                                  MeasurementMode::kHadamardTest,
                                  CircuitStorage::kMemoryEfficient);
  const EnergyEvaluator store_all(ansatz.circuit, h, {},
                                  MeasurementMode::kHadamardTest,
                                  CircuitStorage::kStoreAll);
  EXPECT_NEAR(efficient.energy(params), store_all.energy(params), 1e-9);
  // Fig. 9's memory axis: one replica vs one full circuit per Pauli string.
  EXPECT_GT(store_all.stored_circuit_bytes(),
            10 * efficient.stored_circuit_bytes());
  EXPECT_EQ(store_all.circuit_count(), 14u);  // 15 terms minus identity
}

TEST(EnergyEvaluator, PartialEnergiesSumToTotal) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const EnergyEvaluator eval(ansatz.circuit, h);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);
  std::vector<std::size_t> evens, odds;
  for (std::size_t i = 0; i < eval.n_terms(); ++i)
    (i % 2 ? odds : evens).push_back(i);
  const double total = eval.partial_energy(params, evens) +
                       eval.partial_energy(params, odds) +
                       eval.constant_term();
  EXPECT_NEAR(total, eval.energy(params), 1e-10);
}

// The H2 evaluators of both measurement paths: direct (partial energies
// measured term by term) and the Hadamard test.
std::vector<std::unique_ptr<EnergyEvaluator>> h2_evaluators(
    const UccsdAnsatz& ansatz) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  std::vector<std::unique_ptr<EnergyEvaluator>> evals;
  evals.push_back(std::make_unique<EnergyEvaluator>(ansatz.circuit, h));
  evals.push_back(std::make_unique<EnergyEvaluator>(
      ansatz.circuit, h, sim::MpsOptions{}, MeasurementMode::kHadamardTest));
  return evals;
}

// An index past the term list would read past the terms.
TEST(EnergyEvaluator, PartialEnergyRejectsOutOfRangeIndex) {
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);
  for (const auto& eval : h2_evaluators(ansatz)) {
    EXPECT_THROW(eval->partial_energy(params, {0, eval->n_terms()}), Error);
    EXPECT_NO_THROW(eval->partial_energy(params, {eval->n_terms() - 1}));
  }
}

// A repeated index would count its term twice.
TEST(EnergyEvaluator, PartialEnergyRejectsRepeatedIndex) {
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);
  for (const auto& eval : h2_evaluators(ansatz))
    EXPECT_THROW(eval->partial_energy(params, {1, 0, 1}), Error);
}

TEST(EnergyEvaluator, ParameterShiftMatchesFiniteDifferences) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const EnergyEvaluator eval(ansatz.circuit, h);
  const std::vector<double> params = initial_parameters(ansatz, 0.15);

  const std::vector<double> exact = eval.parameter_shift_gradient(params);
  EnergyFn f = [&](const std::vector<double>& x) { return eval.energy(x); };
  const std::vector<double> fd = finite_difference_gradient(f, params, 1e-6);
  ASSERT_EQ(exact.size(), fd.size());
  for (std::size_t k = 0; k < exact.size(); ++k)
    EXPECT_NEAR(exact[k], fd[k], 1e-6) << "param " << k;
}

TEST(Vqe, H2ReachesChemicalAccuracy) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const chem::FciResult fci = chem::fci_ground_state(s.mo, 1, 1);
  VqeOptions opts;
  opts.optimizer.max_iterations = 60;
  const VqeResult r = run_vqe(s.mo, 1, 1, opts);
  // Chemical accuracy: 1.6 mHa.
  EXPECT_NEAR(r.energy, fci.energy, 1.6e-3);
  EXPECT_LT(r.energy, s.scf.energy);
  EXPECT_EQ(r.n_pauli_terms, 14u);
}

TEST(Vqe, StretchedH2CapturesStaticCorrelation) {
  const Solved s = solve(chem::Molecule::h2(2.8));
  const chem::FciResult fci = chem::fci_ground_state(s.mo, 1, 1);
  VqeOptions opts;
  opts.optimizer.max_iterations = 80;
  const VqeResult r = run_vqe(s.mo, 1, 1, opts);
  EXPECT_NEAR(r.energy, fci.energy, 1.6e-3);
  // RHF misses a lot here; VQE must recover it.
  EXPECT_LT(r.energy, s.scf.energy - 0.02);
}

TEST(Vqe, EnergyHistoryIsMonotoneWithLbfgs) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  VqeOptions opts;
  opts.optimizer.max_iterations = 40;
  const VqeResult r = run_vqe(s.mo, 1, 1, opts);
  for (std::size_t i = 1; i < r.history.size(); ++i)
    EXPECT_LE(r.history[i], r.history[i - 1] + 1e-9);
}

TEST(Vqe, InitialParametersStartTheOptimizer) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  VqeOptions opts;
  opts.optimizer.max_iterations = 40;
  const VqeResult cold = run_vqe(s.mo, 1, 1, opts);
  ASSERT_GT(cold.iterations, 1);

  // From the optimum: the first energy is the optimum's, and the optimizer
  // has (almost) nothing left to do.
  opts.initial_parameters = cold.parameters;
  const VqeResult warm = run_vqe(s.mo, 1, 1, opts);
  expect_same_bits({warm.history.front()}, {cold.energy}, "warm start");
  EXPECT_LT(warm.iterations, cold.iterations);

  // From zero amplitudes: the first energy is Hartree–Fock's.
  opts.initial_parameters.assign(cold.parameters.size(), 0.0);
  const VqeResult from_hf = run_vqe(s.mo, 1, 1, opts);
  EXPECT_NEAR(from_hf.history.front(), s.scf.energy, 1e-8);
}

TEST(Vqe, InitialParametersOfWrongLengthThrowNamingBothLengths) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const std::size_t n =
      build_uccsd(s.mo.n_orbitals(), 1, 1, UccsdOptions{}).n_parameters;
  VqeOptions opts;
  opts.initial_parameters.assign(n + 2, 0.1);
  try {
    run_vqe(s.mo, 1, 1, opts);
    FAIL() << "a starting point of the wrong length was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(n + 2) + " entries"), std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(n) + " parameters"), std::string::npos)
        << what;
  }
}

TEST(Vqe, NonFiniteInitialParametersThrow) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const std::size_t n =
      build_uccsd(s.mo.n_orbitals(), 1, 1, UccsdOptions{}).n_parameters;
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    VqeOptions opts;
    opts.initial_parameters.assign(n, 0.1);
    opts.initial_parameters.back() = bad;
    EXPECT_THROW(run_vqe(s.mo, 1, 1, opts), Error) << bad;
  }
}

TEST(Vqe, ResumedCheckpointTakesPrecedenceOverInitialParameters) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  VqeOptions opts;
  opts.optimizer.max_iterations = 6;
  opts.optimizer.gradient_tolerance = 0.0;
  opts.optimizer.energy_tolerance = 0.0;
  const VqeResult golden = run_vqe(s.mo, 1, 1, opts);
  ASSERT_GT(golden.iterations, 2);

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "q2_vqe_start_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  opts.checkpoint.path = (dir / "run.ckpt").string();
  opts.checkpoint.resume = false;
  opts.checkpoint.fault.crash_at_iteration = 2;
  EXPECT_THROW(run_vqe(s.mo, 1, 1, opts), ckpt::InjectedCrash);

  // The snapshot holds the iterate; the (different) starting point must not
  // replace it.
  opts.checkpoint.fault = {};
  opts.checkpoint.resume = true;
  opts.initial_parameters.assign(golden.parameters.size(), 0.0);
  const VqeResult resumed = run_vqe(s.mo, 1, 1, opts);
  expect_same_result(golden, resumed, "resumed");
  std::filesystem::remove_all(dir);
}

TEST(EnergyEvaluator, ParallelEnergyBitIdenticalToSerial_H4) {
  // The parallel Pauli-term sweep reduces per-term contributions in index
  // order, so the energy must match the serial sweep bit-for-bit — not just
  // to tolerance — at any thread count.
  const Solved s = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(4, 2, 2);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);

  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = 4;
  const EnergyEvaluator serial(ansatz.circuit, h, serial_mps);
  const EnergyEvaluator parallel(ansatz.circuit, h, parallel_mps);

  const double e_serial = serial.energy(params);
  const double e_parallel = parallel.energy(params);
  EXPECT_EQ(e_serial, e_parallel);  // byte-identical, not EXPECT_NEAR
}

TEST(EnergyEvaluator, ParallelHadamardEnergyBitIdenticalToSerial) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.1);

  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = 4;
  const EnergyEvaluator serial(ansatz.circuit, h, serial_mps,
                               MeasurementMode::kHadamardTest);
  const EnergyEvaluator parallel(ansatz.circuit, h, parallel_mps,
                                 MeasurementMode::kHadamardTest);
  EXPECT_EQ(serial.energy(params), parallel.energy(params));
}

TEST(EnergyEvaluator, ParallelGradientBitIdenticalToSerial) {
  // Each of the 2N shifted-circuit evaluations is independent; entries are
  // chain-ruled in occurrence order regardless of which thread ran them.
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.15);

  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = 4;
  const EnergyEvaluator serial(ansatz.circuit, h, serial_mps);
  const EnergyEvaluator parallel(ansatz.circuit, h, parallel_mps);

  const std::vector<double> g1 = serial.parameter_shift_gradient(params);
  const std::vector<double> g4 = parallel.parameter_shift_gradient(params);
  ASSERT_EQ(g1.size(), g4.size());
  for (std::size_t k = 0; k < g1.size(); ++k)
    EXPECT_EQ(g1[k], g4[k]) << "param " << k;
}

// EnergyEvaluator::gradient against finite_difference_gradient over
// energy(), byte for byte: the full gradient and owned subsets, at 1, 2 and
// 4 threads.
void expect_gradient_matches_finite_differences(const Solved& s, int n_orb,
                                                int n_occ) {
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(n_orb, n_occ, n_occ);
  const std::vector<double> x = initial_parameters(ansatz, 0.1);
  const std::size_t n = ansatz.n_parameters;
  const double eps = 1e-5;
  sim::MpsOptions serial;
  serial.parallel.n_threads = 1;
  const EnergyEvaluator reference(ansatz.circuit, h, serial);
  EnergyFn f = [&](const std::vector<double>& p) {
    return reference.energy(p);
  };
  const std::vector<double> fd = finite_difference_gradient(f, x, eps);

  // An owned subset given out of first-gate order: every parameter except
  // each third one, descending.
  std::vector<std::size_t> owned;
  for (std::size_t k = n; k-- > 0;)
    if (k % 3 != 1) owned.push_back(k);
  std::vector<double> fd_owned(n, 0.0);
  for (std::size_t k : owned) fd_owned[k] = fd[k];

  for (std::size_t threads : {1, 2, 4}) {
    sim::MpsOptions opts;
    opts.parallel.n_threads = threads;
    const EnergyEvaluator eval(ansatz.circuit, h, opts);
    const std::string tag = "threads=" + std::to_string(threads);
    expect_same_bits(eval.gradient(x, eps), fd, tag + " full");
    expect_same_bits(eval.gradient(x, eps, owned), fd_owned, tag + " owned");
  }

  // Shares of any worker count cover every parameter exactly once.
  const EnergyEvaluator eval(ansatz.circuit, h, serial);
  for (std::size_t workers : {1, 3, 4}) {
    std::vector<std::size_t> seen;
    for (std::size_t w = 0; w < workers; ++w)
      for (std::size_t k : eval.gradient_share(w, workers)) seen.push_back(k);
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), n) << "workers=" << workers;
    for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(seen[k], k);
  }
}

TEST(EnergyEvaluator, GradientBitIdenticalToFiniteDifferences_H2) {
  expect_gradient_matches_finite_differences(solve(chem::Molecule::h2(1.4)),
                                             2, 1);
}

TEST(EnergyEvaluator, GradientBitIdenticalToFiniteDifferences_H4) {
  expect_gradient_matches_finite_differences(
      solve(chem::Molecule::hydrogen_chain(4, 1.8)), 4, 2);
}

TEST(EnergyEvaluator, EagerPathGradientsMatchAndKeepTheIteratesError) {
  // The eager paths (kStoreAll, Hadamard test) evaluate each entry with two
  // full energies: still the finite-difference bytes, and still without
  // touching the truncation error an iterate's evaluation recorded.
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> x = initial_parameters(ansatz, 0.15);
  sim::MpsOptions tight;
  tight.max_bond = 1;  // truncates, so every point has its own error
  const std::pair<MeasurementMode, CircuitStorage> paths[] = {
      {MeasurementMode::kDirect, CircuitStorage::kStoreAll},
      {MeasurementMode::kHadamardTest, CircuitStorage::kMemoryEfficient}};
  for (const auto& [mode, storage] : paths) {
    const EnergyEvaluator eval(ansatz.circuit, h, tight, mode, storage);
    EnergyFn f = [&](const std::vector<double>& p) { return eval.energy(p); };
    const std::vector<double> fd = finite_difference_gradient(f, x, 1e-5);
    eval.energy(x);
    const double at_iterate = eval.last_truncation_error();
    EXPECT_GT(at_iterate, 0.0);
    const std::string tag = "mode " + std::to_string(int(mode));
    expect_same_bits(eval.gradient(x, 1e-5), fd, tag);
    EXPECT_EQ(eval.last_truncation_error(), at_iterate) << tag;
  }
}

TEST(EnergyEvaluator, GradientReplaysOnlyShiftedSuffixes) {
  // One serial H4 UCCSD gradient advances a single base state to the last
  // first gate and replays, per parameter, the two suffixes from its first
  // gate. Count those two-site updates from the compiled stream and hold the
  // mps.gates counter to it exactly; central differences over energy() run
  // every one of the 2P circuits whole.
  const Solved s = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(4, 2, 2);
  sim::MpsOptions serial;
  serial.parallel.n_threads = 1;
  const EnergyEvaluator eval(ansatz.circuit, h, serial);
  const std::vector<circ::Gate>& gates = eval.compiled_ansatz().gates.gates();
  auto updates = [&](std::size_t from, std::size_t to) {
    std::uint64_t n = 0;
    for (std::size_t i = from; i < to; ++i) n += gates[i].is_two_qubit();
    return n;
  };
  std::vector<std::size_t> first(ansatz.n_parameters, gates.size());
  for (std::size_t i = gates.size(); i-- > 0;)
    if (gates[i].is_parametric()) first[std::size_t(gates[i].param_index)] = i;
  std::uint64_t expected = updates(0, *std::max_element(first.begin(),
                                                        first.end()));
  for (std::size_t f : first) expected += 2 * updates(f, gates.size());

  const std::vector<double> x = initial_parameters(ansatz, 0.1);
  obs::Counter& counter = obs::Registry::global().counter("mps.gates");
  std::uint64_t before = counter.value();
  eval.gradient(x, 1e-5);
  EXPECT_EQ(counter.value() - before, expected);
  EXPECT_EQ(expected, 40849u);

  EnergyFn f = [&](const std::vector<double>& p) { return eval.energy(p); };
  before = counter.value();
  finite_difference_gradient(f, x, 1e-5);
  EXPECT_EQ(counter.value() - before,
            2 * ansatz.n_parameters * updates(0, gates.size()));
  EXPECT_EQ(counter.value() - before, 64896u);
}

TEST(EnergyEvaluator, HadamardMemoryEfficientReportsTruncationError) {
  // Regression: the memory-efficient Hadamard path never updated
  // last_truncation_error_, so JSONL reports carried a stale value. With a
  // bond cap of 1 the test circuits must truncate, and the evaluator must
  // say so.
  const Solved s = solve(chem::Molecule::h2(1.4));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(ansatz, 0.15);

  sim::MpsOptions tight;
  tight.max_bond = 1;
  const EnergyEvaluator eval(ansatz.circuit, h, tight,
                             MeasurementMode::kHadamardTest,
                             CircuitStorage::kMemoryEfficient);
  EXPECT_EQ(eval.last_truncation_error(), 0.0);
  eval.energy(params);
  EXPECT_GT(eval.last_truncation_error(), 0.0);
}

TEST(Vqe, ReportedTruncationErrorIsTheIterates) {
  // Each vqe_iteration record carries the truncation error of the iterate
  // itself. The gradient at the iterate runs after it and must not
  // overwrite the value with that of its last finite-difference point.
  const Solved s = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  VqeOptions opts;
  opts.mps.max_bond = 4;  // truncates, so the error depends on the point
  opts.optimizer.max_iterations = 2;
  const std::string path = testing::TempDir() + "q2_vqe_truncation.jsonl";
  ASSERT_TRUE(obs::RunReport::global().open(path));
  const VqeResult r = run_vqe(s.mo, 2, 2, opts);
  obs::RunReport::global().close();

  double reported = -1.0;
  int records = 0;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    const obs::Json j = obs::Json::parse(line);
    if (j.at("kind").string != "vqe_iteration") continue;
    reported = j.at("truncation_error").number;
    ++records;
  }
  std::remove(path.c_str());
  ASSERT_EQ(records, r.iterations);

  const UccsdAnsatz ansatz = build_uccsd(4, 2, 2, opts.ansatz);
  sim::Mps fresh(ansatz.circuit.n_qubits(), opts.mps);
  fresh.run(circ::compile_for_mps(ansatz.circuit), r.parameters);
  EXPECT_GT(fresh.truncation_error(), 0.0);
  EXPECT_EQ(reported, fresh.truncation_error());
}

// run_vqe_distributed on `ranks` ranks of `threads` threads each; every
// rank must return the same bits, and rank 0's result is returned.
VqeResult run_on_ranks(const Solved& s, int n_occ, VqeOptions opts, int ranks,
                       std::size_t threads) {
  opts.mps.parallel.n_threads = threads;
  std::vector<VqeResult> results(static_cast<std::size_t>(ranks));
  par::World(ranks).run([&](par::Comm& comm) {
    results[std::size_t(comm.rank())] =
        run_vqe_distributed(s.mo, n_occ, n_occ, opts, comm);
  });
  for (int r = 1; r < ranks; ++r)
    expect_same_result(results[std::size_t(r)], results[0],
                       "rank " + std::to_string(r) + " of " +
                           std::to_string(ranks));
  return results[0];
}

// Distributed runs (1-4 ranks, 2 ranks x 2 threads; 3 ranks deal the
// gradient unevenly) and threaded runs (2 and 4 threads) must reproduce the
// serial run's energy, parameters and history bit for bit.
void expect_distributed_matches_serial(const Solved& s, int n_occ,
                                       const VqeOptions& opts) {
  VqeOptions serial_opts = opts;
  serial_opts.mps.parallel.n_threads = 1;
  const VqeResult serial = run_vqe(s.mo, n_occ, n_occ, serial_opts);
  ASSERT_GT(serial.iterations, 0);
  for (std::size_t threads : {2, 4}) {
    VqeOptions threaded = opts;
    threaded.mps.parallel.n_threads = threads;
    expect_same_result(run_vqe(s.mo, n_occ, n_occ, threaded), serial,
                       "threads=" + std::to_string(threads));
  }
  for (int ranks = 1; ranks <= 4; ++ranks)
    expect_same_result(run_on_ranks(s, n_occ, opts, ranks, 1), serial,
                       "ranks=" + std::to_string(ranks));
  expect_same_result(run_on_ranks(s, n_occ, opts, 2, 2), serial,
                     "2 ranks x 2 threads");
}

TEST(Vqe, DistributedMatchesSerial) {
  VqeOptions opts;
  opts.optimizer.max_iterations = 25;
  expect_distributed_matches_serial(solve(chem::Molecule::h2(1.4)), 1, opts);
}

TEST(Vqe, HadamardDistributedAgreesOnEveryRank) {
  // Hadamard-test mode keeps the per-string split: every evaluation sums
  // the ranks' partial energies, in rank order on every rank, so all ranks
  // follow one trajectory (run_on_ranks checks their bits) that matches
  // the serial run to rounding.
  const Solved s = solve(chem::Molecule::h2(1.4));
  VqeOptions opts;
  opts.measurement = MeasurementMode::kHadamardTest;
  opts.optimizer.max_iterations = 5;
  const VqeResult serial = run_vqe(s.mo, 1, 1, opts);
  const VqeResult distributed = run_on_ranks(s, 1, opts, 3, 1);
  EXPECT_EQ(distributed.iterations, serial.iterations);
  EXPECT_NEAR(distributed.energy, serial.energy, 1e-10);
}

TEST(Vqe, DistributedMatchesSerial_H4) {
  VqeOptions opts;
  opts.optimizer.max_iterations = 3;
  expect_distributed_matches_serial(
      solve(chem::Molecule::hydrogen_chain(4, 1.8)), 2, opts);
}

}  // namespace
}  // namespace q2::vqe
