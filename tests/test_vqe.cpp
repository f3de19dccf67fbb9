// End-to-end VQE tests: H2 to chemical accuracy against FCI, agreement of
// the measurement paths (direct vs Hadamard test) and storage modes, L-BFGS
// on analytic functions (and failing loudly on a NaN),
// the prefix-sharing gradients against plain finite differences, the
// adjoint gradient against parameter shift, central differences and the
// two-walk oracle, with its fallback, the recording it restores psi from
// and the state it keeps from the energy evaluation, and
// distributed == threaded == serial determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "parallel/comm.hpp"
#include "adjoint_oracle.hpp"
#include "sim/statevector.hpp"
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

// A quadratic bowl whose energy or gradient turns NaN at a chosen call.
// It records how many calls had been made, and which iteration was running
// (completed iterations + 1; 0 before the starting point is done), when the
// NaN went out.
struct NanAt {
  int energy_nan_at = -1, gradient_nan_at = -1;
  int energy_calls = 0, gradient_calls = 0, completed = 0;
  bool started = false;
  int calls_at_nan = -1, iteration_at_nan = -1;

  int calls() const { return energy_calls + gradient_calls; }
  void mark() {
    calls_at_nan = calls();
    iteration_at_nan = started ? completed + 1 : 0;
  }
  std::string run() {
    EnergyFn f = [this](const std::vector<double>& x) {
      ++energy_calls;
      if (energy_calls == energy_nan_at) {
        mark();
        return std::nan("");
      }
      return (x[0] - 1) * (x[0] - 1) + 2 * (x[1] + 0.5) * (x[1] + 0.5);
    };
    GradientFn g = [this](const std::vector<double>& x) {
      ++gradient_calls;
      std::vector<double> d{2 * (x[0] - 1), 4 * (x[1] + 0.5)};
      if (gradient_calls == gradient_nan_at) {
        mark();
        d[1] = std::nan("");
      }
      started = true;  // the starting point's gradient closes iteration 0
      return d;
    };
    OptimizerOptions opts;
    opts.iteration_observer = [this](int, double, double) { ++completed; };
    try {
      minimize_lbfgs(f, g, {3.0, 2.0}, opts);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  }
};

TEST(Optimizer, LbfgsThrowsOnNonFiniteEnergy) {
  for (int at : {1, 2, 4}) {
    NanAt probe;
    probe.energy_nan_at = at;
    const std::string what = probe.run();
    ASSERT_GE(probe.calls_at_nan, 1) << "call " << at;
    EXPECT_NE(what.find("iteration " + std::to_string(probe.iteration_at_nan) +
                        ": the energy is not finite"),
              std::string::npos)
        << what;
    EXPECT_LE(probe.calls() - probe.calls_at_nan, 1) << "call " << at;
  }
}

TEST(Optimizer, LbfgsThrowsOnNonFiniteGradient) {
  for (int at : {1, 2, 3}) {
    NanAt probe;
    probe.gradient_nan_at = at;
    const std::string what = probe.run();
    ASSERT_GE(probe.calls_at_nan, 1) << "call " << at;
    EXPECT_NE(what.find("iteration " + std::to_string(probe.iteration_at_nan) +
                        ": gradient entry 1 is not finite"),
              std::string::npos)
        << what;
    EXPECT_LE(probe.calls() - probe.calls_at_nan, 1) << "call " << at;
  }
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

// A parameter listed twice would be computed twice, and two pool workers
// could write its entry at once.
TEST(EnergyEvaluator, GradientRejectsParameterListedTwice) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  sim::MpsOptions threaded;
  threaded.parallel.n_threads = 4;
  const EnergyEvaluator eval(ansatz.circuit,
                             chem::molecular_qubit_hamiltonian(s.mo), threaded);
  const std::vector<double> x = initial_parameters(ansatz, 0.1);
  ASSERT_GE(ansatz.n_parameters, 2u);
  try {
    eval.gradient(x, 1e-5, {1, 0, 1});
    ADD_FAILURE() << "a parameter listed twice was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("parameter 1 listed twice"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(eval.gradient(x, 1e-5, {1, 0}));
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

// The adjoint gradient against the two references: the parameter-shift
// rule (exact, so 1e-10 per entry) and central differences at eps = 1e-5
// (1e-7: their own truncation and rounding error).
void expect_adjoint_matches_references(const EnergyEvaluator& eval,
                                       const std::vector<double>& x,
                                       const std::string& what) {
  const std::optional<std::vector<double>> adjoint = eval.adjoint_gradient(x);
  ASSERT_TRUE(adjoint.has_value()) << what;
  const std::vector<double> ps = eval.parameter_shift_gradient(x);
  const std::vector<double> fd = eval.gradient(x, 1e-5);
  ASSERT_EQ(adjoint->size(), ps.size()) << what;
  for (std::size_t k = 0; k < ps.size(); ++k) {
    EXPECT_NEAR((*adjoint)[k], ps[k], 1e-10) << what << " entry " << k;
    EXPECT_NEAR((*adjoint)[k], fd[k], 1e-7) << what << " entry " << k;
  }
}

// A point off the initial_parameters line, so no two entries are equal.
std::vector<double> skewed(std::vector<double> x) {
  for (std::size_t k = 0; k < x.size(); ++k) x[k] += 0.03 * std::sin(1.0 + k);
  return x;
}

TEST(AdjointGradient, MatchesParameterShiftAndCentralDifferences_H2) {
  const Solved s = solve(chem::Molecule::h2(1.4));
  const UccsdAnsatz ansatz = build_uccsd(2, 1, 1);
  const EnergyEvaluator eval(ansatz.circuit,
                             chem::molecular_qubit_hamiltonian(s.mo));
  expect_adjoint_matches_references(
      eval, skewed(initial_parameters(ansatz, 0.15)), "H2");
}

TEST(AdjointGradient, MatchesParameterShiftAndCentralDifferences_H4) {
  const Solved s = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const UccsdAnsatz ansatz = build_uccsd(4, 2, 2);
  sim::MpsOptions exact;
  exact.max_bond = 16;  // 2^4: the exact bond of 8 qubits
  const EnergyEvaluator eval(ansatz.circuit,
                             chem::molecular_qubit_hamiltonian(s.mo), exact);
  expect_adjoint_matches_references(
      eval, skewed(initial_parameters(ansatz, 0.1)), "H4 near HF");
  expect_adjoint_matches_references(
      eval, skewed(initial_parameters(ansatz, 0.4)), "H4 far from HF");
}

TEST(AdjointGradient, LambdaMatchesStateVectorOracle) {
  // lambda = H|psi> from the measurement MPO, against the state-vector
  // product: the MPO carries no identity term, so the oracle drops the
  // constant, and both sides are compared in logical qubit order (the
  // engines carry the compiled output permutation).
  struct Case {
    chem::Molecule mol;
    int n_orb, n_occ;
    bool permuted;  ///< the compiled stream ends off the identity
  };
  for (const Case& c :
       {Case{chem::Molecule::h2(1.4), 2, 1, false},
        Case{chem::Molecule::hydrogen_chain(4, 1.8), 4, 2, true}}) {
    const Solved s = solve(c.mol);
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    const UccsdAnsatz ansatz = build_uccsd(c.n_orb, c.n_occ, c.n_occ);
    const EnergyEvaluator eval(ansatz.circuit, h);
    sim::Mps psi(ansatz.circuit.n_qubits());
    psi.run(eval.compiled_ansatz(), skewed(initial_parameters(ansatz, 0.2)));
    ASSERT_EQ(!psi.output_permutation().is_identity(), c.permuted);
    double norm = 0.0;
    const sim::Mps lambda = psi.apply_mpo(eval.measurement_mpo(), norm);
    EXPECT_EQ(lambda.output_permutation(), psi.output_permutation());
    EXPECT_NEAR(lambda.norm(), 1.0, 1e-13);

    const std::vector<cplx> amps = psi.to_statevector();
    std::vector<cplx> oracle = sim::apply_qubit_operator(h, amps);
    for (std::size_t i = 0; i < amps.size(); ++i)
      oracle[i] -= eval.constant_term() * amps[i];
    const std::vector<cplx> got = lambda.to_statevector();
    double err = 0.0, ref = 0.0;
    for (std::size_t i = 0; i < amps.size(); ++i) {
      err += std::norm(norm * got[i] - oracle[i]);
      ref += std::norm(oracle[i]);
    }
    EXPECT_NEAR(norm, std::sqrt(ref), 1e-12 * std::sqrt(ref));
    EXPECT_LE(std::sqrt(err), 1e-12 * std::sqrt(ref)) << c.n_orb << " orbitals";
  }
}

TEST(AdjointGradient, MakesThreePreparationsOfUpdates) {
  // One recorded forward preparation, then lambda alone walks back to the
  // first parametric gate (psi is restored from the recording, which costs
  // no update): the two-site updates follow from the compiled stream
  // exactly, two preparations' worth where the two-walk pass made three,
  // and at least 5x fewer than central differences' 40 849.
  const Solved s = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const UccsdAnsatz ansatz = build_uccsd(4, 2, 2);
  sim::MpsOptions serial;
  serial.max_bond = 16;
  serial.parallel.n_threads = 1;
  const EnergyEvaluator eval(ansatz.circuit,
                             chem::molecular_qubit_hamiltonian(s.mo), serial);
  const std::vector<circ::Gate>& gates = eval.compiled_ansatz().gates.gates();
  std::size_t first = gates.size();
  for (std::size_t i = gates.size(); i-- > 0;)
    if (gates[i].is_parametric()) first = i;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < gates.size(); ++i)
    expected += gates[i].is_two_qubit() * (i > first ? 2 : 1);

  obs::Counter& updates = obs::Registry::global().counter("mps.gates");
  obs::Counter& adjoints =
      obs::Registry::global().counter("vqe.adjoint_gradients");
  const std::uint64_t before = updates.value(), adjoints_before =
                                                    adjoints.value();
  ASSERT_TRUE(eval.adjoint_gradient(initial_parameters(ansatz, 0.1)));
  EXPECT_EQ(updates.value() - before, expected);
  EXPECT_EQ(expected, 2492u);
  EXPECT_LE(5 * expected, 40849u);
  EXPECT_EQ(adjoints.value() - adjoints_before, 1u);
}

// H4 at the exact bond D = 16 on one thread: the case of the kept-state
// tests below.
struct H4Exact {
  pauli::QubitOperator h;
  UccsdAnsatz ansatz = build_uccsd(4, 2, 2);
  sim::MpsOptions mps;
  H4Exact()
      : h(chem::molecular_qubit_hamiltonian(
            solve(chem::Molecule::hydrogen_chain(4, 1.8)).mo)) {
    mps.max_bond = 16;
    mps.parallel.n_threads = 1;
  }
  /// The gradient at x from an evaluator that has kept nothing.
  std::vector<double> cold_gradient(const std::vector<double>& x) const {
    return *EnergyEvaluator(ansatz.circuit, h, mps).adjoint_gradient(x);
  }
};

std::uint64_t two_site_updates() {
  return obs::Registry::global().counter("mps.gates").value();
}

TEST(AdjointGradient, StartsFromTheStateTheEnergyKept) {
  // After energy(x), adjoint_gradient(x) skips the forward preparation: its
  // backward walk makes 1 244 of the cold 2 492 updates. One ulp away from
  // the kept point it records psi(y) itself. Both carry the bits of a
  // gradient from an evaluator that kept nothing.
  const H4Exact c;
  const EnergyEvaluator eval(c.ansatz.circuit, c.h, c.mps);
  const std::vector<double> x = skewed(initial_parameters(c.ansatz, 0.1));
  eval.energy(x);
  std::uint64_t before = two_site_updates();
  const std::optional<std::vector<double>> kept = eval.adjoint_gradient(x);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(two_site_updates() - before, 1244u);
  expect_same_bits(*kept, c.cold_gradient(x), "kept state");

  std::vector<double> y = x;
  y[3] = std::nextafter(y[3], 1.0);
  before = two_site_updates();
  const std::optional<std::vector<double>> moved = eval.adjoint_gradient(y);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(two_site_updates() - before, 2492u);
  expect_same_bits(*moved, c.cold_gradient(y), "one ulp off the kept point");

  // The walk restored a copy: the slot still serves x, and state_at hands
  // back the kept state without a preparation.
  before = two_site_updates();
  expect_same_bits(*eval.adjoint_gradient(x), *kept, "kept state, again");
  const std::vector<cplx> amps = eval.state_at(x).to_statevector();
  EXPECT_EQ(two_site_updates() - before, 1244u);
  sim::Mps fresh(c.ansatz.circuit.n_qubits(), c.mps);
  fresh.run(eval.compiled_ansatz(), x);
  const std::vector<cplx> fresh_amps = fresh.to_statevector();
  ASSERT_EQ(amps.size(), fresh_amps.size());
  EXPECT_EQ(std::memcmp(amps.data(), fresh_amps.data(),
                        amps.size() * sizeof(cplx)),
            0);
}

TEST(AdjointGradient, LbfgsRunPreparesEachIterateOnce) {
  // L-BFGS asks for the gradient where it has just measured the energy, so
  // a 3-iteration run (5 energies, 4 gradients) makes 5 x 1 248 + 4 x 1 244
  // two-site updates, and follows the trajectory of cold gradients bit for
  // bit. An open run report asks adjoint_applies(x0), whose preparation
  // then serves f(x0) and g(x0): the same updates, the same bits.
  const H4Exact c;
  VqeOptions opts;
  opts.mps = c.mps;
  opts.optimizer.max_iterations = 3;
  std::uint64_t before = two_site_updates();
  const VqeResult run = run_vqe_on(c.h, c.ansatz, opts);
  const std::uint64_t run_updates = two_site_updates() - before;
  EXPECT_EQ(run_updates, 5u * 1248u + 4u * 1244u);
  EXPECT_EQ(run_updates, 11216u);
  EXPECT_EQ(run.history.size(), 4u);

  const EnergyEvaluator reference(c.ansatz.circuit, c.h, c.mps);
  const OptimizerResult cold = minimize_lbfgs(
      [&](const std::vector<double>& x) { return reference.energy(x); },
      [&](const std::vector<double>& x) { return c.cold_gradient(x); },
      initial_parameters(c.ansatz), opts.optimizer);
  EXPECT_EQ(run.iterations, cold.iterations);
  expect_same_bits({run.energy}, {cold.energy}, "energy");
  expect_same_bits(run.parameters, cold.parameters, "parameters");
  expect_same_bits(run.history, cold.history, "history");

  const std::string path = testing::TempDir() + "q2_vqe_kept_report.jsonl";
  ASSERT_TRUE(obs::RunReport::global().open(path));
  before = two_site_updates();
  const VqeResult reported = run_vqe_on(c.h, c.ansatz, opts);
  const std::uint64_t reported_updates = two_site_updates() - before;
  obs::RunReport::global().close();
  std::remove(path.c_str());
  EXPECT_EQ(reported_updates, run_updates);
  expect_same_result(reported, run, "with a run report open");
}

TEST(AdjointGradient, MatchesTheTwoWalkOracle) {
  // Restoring psi from the recording instead of walking it back moves only
  // rounding: against the two-walk pass (tests/adjoint_oracle.hpp) every
  // entry agrees to 1e-12, on H2 and at two H4 points, and a gradient from
  // the kept state carries the cold bits.
  struct Case {
    std::string name;
    chem::Molecule mol;
    int n_orb, n_occ;
    double scale;
  };
  sim::MpsOptions exact;
  exact.max_bond = 16;
  for (const Case& c :
       {Case{"H2", chem::Molecule::h2(1.4), 2, 1, 0.15},
        Case{"H4 near HF", chem::Molecule::hydrogen_chain(4, 1.8), 4, 2, 0.1},
        Case{"H4 far from HF", chem::Molecule::hydrogen_chain(4, 1.8), 4, 2,
             0.4}}) {
    const UccsdAnsatz ansatz = build_uccsd(c.n_orb, c.n_occ, c.n_occ);
    const EnergyEvaluator eval(
        ansatz.circuit, chem::molecular_qubit_hamiltonian(solve(c.mol).mo),
        exact);
    const std::vector<double> x = skewed(initial_parameters(ansatz, c.scale));
    const std::vector<double> oracle =
        test::two_walk_adjoint_gradient(eval, exact, x);
    const std::vector<double> cold = *eval.adjoint_gradient(x);
    eval.energy(x);
    expect_same_bits(*eval.adjoint_gradient(x), cold, c.name + " kept");
    ASSERT_EQ(cold.size(), oracle.size()) << c.name;
    for (std::size_t k = 0; k < cold.size(); ++k)
      EXPECT_NEAR(cold[k], oracle[k], 1e-12) << c.name << " entry " << k;
  }
}

// Every array of two unpermuted engines' exported states, by bytes.
void expect_same_state(const sim::Mps& a, const sim::Mps& b,
                       const std::string& what) {
  const sim::MpsState sa = a.export_state(), sb = b.export_state();
  ASSERT_EQ(sa.dl, sb.dl) << what;
  ASSERT_EQ(sa.dr, sb.dr) << what;
  for (std::size_t k = 0; k < sa.tensors.size(); ++k)
    EXPECT_EQ(std::memcmp(sa.tensors[k].data(), sb.tensors[k].data(),
                          sa.tensors[k].size() * sizeof(cplx)),
              0)
        << what << " site " << k;
  for (std::size_t k = 0; k < sa.lambda.size(); ++k) {
    ASSERT_EQ(sa.lambda[k].size(), sb.lambda[k].size()) << what;
    EXPECT_EQ(std::memcmp(sa.lambda[k].data(), sb.lambda[k].data(),
                          sa.lambda[k].size() * sizeof(double)),
              0)
        << what << " bond " << k;
  }
  expect_same_bits({sa.truncation_error}, {sb.truncation_error},
                   what + " truncation error");
}

TEST(AdjointGradient, RecordingRestoresEachRotationsState) {
  // A recorded run carries the bits of an unrecorded one. Restoring its
  // segments last to first from the final state then gives, at every
  // parametric gate i of H4's stream, the bits of run(compiled, x, 0, i + 1).
  const H4Exact c;
  const EnergyEvaluator eval(c.ansatz.circuit, c.h, c.mps);
  const circ::CompiledCircuit& compiled = eval.compiled_ansatz();
  const std::vector<circ::Gate>& gates = compiled.gates.gates();
  const int n = c.ansatz.circuit.n_qubits();
  const std::vector<double> x = skewed(initial_parameters(c.ansatz, 0.3));
  sim::Mps psi(n, c.mps), plain(n, c.mps);
  sim::MpsRecording recording;
  psi.run(compiled, x, recording);
  plain.run(compiled, x);
  EXPECT_EQ(psi.output_permutation(), plain.output_permutation());
  const std::vector<cplx> a = psi.to_statevector(), b = plain.to_statevector();
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)), 0);

  std::vector<std::size_t> rotations;
  for (std::size_t i = 0; i < gates.size(); ++i)
    if (gates[i].is_parametric()) rotations.push_back(i);
  ASSERT_EQ(recording.segments(), rotations.size());
  ASSERT_LT(rotations.back() + 1, gates.size());
  // The size DESIGN.md quotes: 862 site tensors, under 1.4 MB.
  EXPECT_EQ(recording.tensors(), 862u);
  EXPECT_LE(recording.bytes(), 1400000u);
  for (std::size_t k = rotations.size(); k-- > 0;) {
    psi.restore(recording, k);
    sim::Mps reference(n, c.mps);
    reference.run(compiled, x, 0, rotations[k] + 1);
    expect_same_state(psi, reference,
                      "rotation " + std::to_string(k) + " (gate " +
                          std::to_string(rotations[k]) + ")");
  }
}

TEST(AdjointGradient, RecordedEnergyKeepsTheUnrecordedBits) {
  // energy(x) records its preparation where the cap cannot bind. The
  // recording only copies tensors, so the energy carries the bits of an
  // unrecorded preparation measured through the same MPO.
  const H4Exact c;
  const EnergyEvaluator eval(c.ansatz.circuit, c.h, c.mps);
  obs::Counter& recorded =
      obs::Registry::global().counter("mps.recorded_bytes");
  for (double scale : {0.1, 0.4}) {
    const std::vector<double> x = skewed(initial_parameters(c.ansatz, scale));
    const std::uint64_t before = recorded.value();
    const double e = eval.energy(x);
    EXPECT_GT(recorded.value() - before, 0u);
    sim::Mps plain(c.ansatz.circuit.n_qubits(), c.mps);
    plain.run(eval.compiled_ansatz(), x);
    expect_same_bits(
        {e}, {eval.constant_term() + plain.sweep_mpo(eval.measurement_mpo()).real()},
        "scale " + std::to_string(scale));
  }
}

TEST(AdjointGradient, RecordsNothingWhereTheCapBinds) {
  // H4 at D = 4 and H10 window 2 at D = 16 fail the static cap test: their
  // energies and central-difference gradients record and keep nothing, and
  // make exactly the updates of the compiled stream, one preparation per
  // energy and the shared-prefix replays per gradient.
  const Solved h10 = solve(chem::Molecule::hydrogen_chain(10, 1.8));
  UccsdOptions window;
  window.distance_window = 2;
  const H4Exact h4;
  sim::MpsOptions capped = h4.mps, d16 = h4.mps;
  capped.max_bond = 4;
  struct Case {
    std::string name;
    pauli::QubitOperator h;
    UccsdAnsatz ansatz;
    sim::MpsOptions mps;
  };
  const std::vector<Case> cases = {
      {"H4 D=4", h4.h, h4.ansatz, capped},
      {"H10 window 2", chem::molecular_qubit_hamiltonian(h10.mo),
       build_uccsd(10, 5, 5, window), d16}};
  obs::Counter& recorded =
      obs::Registry::global().counter("mps.recorded_bytes");
  for (const Case& c : cases) {
    const EnergyEvaluator eval(c.ansatz.circuit, c.h, c.mps);
    const std::vector<circ::Gate>& gates =
        eval.compiled_ansatz().gates.gates();
    auto updates = [&](std::size_t from) {
      std::uint64_t n = 0;
      for (std::size_t i = from; i < gates.size(); ++i)
        n += gates[i].is_two_qubit();
      return n;
    };
    std::vector<std::size_t> first(c.ansatz.n_parameters, gates.size());
    for (std::size_t i = gates.size(); i-- > 0;)
      if (gates[i].is_parametric())
        first[std::size_t(gates[i].param_index)] = i;
    const std::size_t last_first = *std::max_element(first.begin(), first.end());
    std::uint64_t gradient_updates = updates(0) - updates(last_first);
    for (std::size_t f : first) gradient_updates += 2 * updates(f);

    const std::vector<double> x = initial_parameters(c.ansatz, 0.1);
    const std::uint64_t recorded_before = recorded.value();
    std::uint64_t before = two_site_updates();
    eval.energy(x);
    EXPECT_EQ(two_site_updates() - before, updates(0)) << c.name;
    before = two_site_updates();
    eval.gradient(x, 1e-5);
    EXPECT_EQ(two_site_updates() - before, gradient_updates) << c.name;
    EXPECT_FALSE(eval.adjoint_gradient(x).has_value()) << c.name;
    EXPECT_EQ(recorded.value() - recorded_before, 0u) << c.name;
    if (c.name == "H4 D=4") {
      EXPECT_EQ(updates(0), 1248u);
      EXPECT_EQ(gradient_updates, 40849u);
    }
  }
}

TEST(AdjointGradient, EvaluatorHoldsOneRecording) {
  // energy(x1) keeps psi(x1) with its recording; energy(x2) releases both
  // before it records psi(x2), and keeps that one alone: the gradient at x2
  // makes only lambda's walk, and the one at x1 is cold again. A cold
  // gradient records for itself and leaves the slot alone, so the gradient
  // at x2 still finds its recording afterwards.
  const H4Exact c;
  const EnergyEvaluator eval(c.ansatz.circuit, c.h, c.mps);
  const std::vector<double> x1 = skewed(initial_parameters(c.ansatz, 0.1)),
                            x2 = skewed(initial_parameters(c.ansatz, 0.2));
  obs::Counter& recorded =
      obs::Registry::global().counter("mps.recorded_bytes");
  std::uint64_t before = recorded.value();
  eval.energy(x1);
  eval.energy(x2);
  EXPECT_GT(recorded.value() - before, 0u);

  before = two_site_updates();
  ASSERT_TRUE(eval.adjoint_gradient(x2).has_value());
  EXPECT_EQ(two_site_updates() - before, 1244u);
  before = two_site_updates();
  ASSERT_TRUE(eval.adjoint_gradient(x1).has_value());
  EXPECT_EQ(two_site_updates() - before, 2492u);
  before = two_site_updates();
  ASSERT_TRUE(eval.adjoint_gradient(x2).has_value());
  EXPECT_EQ(two_site_updates() - before, 1244u);
}

TEST(AdjointGradient, SharedEvaluatorKeepsEachThreadsBits) {
  // Four threads share one evaluator and interleave energy(x_t) and
  // adjoint_gradient(x_t) at distinct points, so each may find the slot
  // holding its own point or another thread's. Every energy and gradient
  // carries the bits of a cold one.
  const H4Exact c;
  const EnergyEvaluator shared(c.ansatz.circuit, c.h, c.mps);
  constexpr std::size_t kThreads = 4, kRounds = 2;
  std::vector<std::vector<double>> points;
  for (std::size_t t = 0; t < kThreads; ++t)
    points.push_back(skewed(initial_parameters(c.ansatz, 0.05 * double(t + 1))));
  std::vector<std::vector<double>> energies(kThreads), gradients(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        energies[t].push_back(shared.energy(points[t]));
        const std::vector<double> g = *shared.adjoint_gradient(points[t]);
        gradients[t].insert(gradients[t].end(), g.begin(), g.end());
      }
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    const EnergyEvaluator cold(c.ansatz.circuit, c.h, c.mps);
    const double e = cold.energy(points[t]);
    const std::vector<double> g = c.cold_gradient(points[t]);
    std::vector<double> e_expected, g_expected;
    for (std::size_t r = 0; r < kRounds; ++r) {
      e_expected.push_back(e);
      g_expected.insert(g_expected.end(), g.begin(), g.end());
    }
    const std::string tag = "thread " + std::to_string(t);
    expect_same_bits(energies[t], e_expected, tag + " energies");
    expect_same_bits(gradients[t], g_expected, tag + " gradients");
  }
}

TEST(AdjointGradient, BitIdenticalAcrossThreadsAndRanks) {
  const Solved s = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const UccsdAnsatz ansatz = build_uccsd(4, 2, 2);
  const std::vector<double> x = skewed(initial_parameters(ansatz, 0.2));
  auto adjoint_at = [&](std::size_t threads) {
    sim::MpsOptions opts;
    opts.parallel.n_threads = threads;
    const EnergyEvaluator eval(ansatz.circuit, h, opts);
    return *eval.adjoint_gradient(x);
  };
  const std::vector<double> serial = adjoint_at(1);
  for (std::size_t threads : {2, 4})
    expect_same_bits(adjoint_at(threads), serial,
                     "threads=" + std::to_string(threads));
  std::vector<std::vector<double>> ranks(4);
  par::World(4).run([&](par::Comm& comm) {
    ranks[std::size_t(comm.rank())] = adjoint_at(1);
  });
  for (std::size_t r = 0; r < ranks.size(); ++r)
    expect_same_bits(ranks[r], serial, "rank " + std::to_string(r));
}

// The gradient path the vqe_setup record of run_vqe_on names.
std::string reported_gradient_path(const pauli::QubitOperator& h,
                                   const UccsdAnsatz& ansatz,
                                   const VqeOptions& opts, VqeResult& r) {
  const std::string path = testing::TempDir() + "q2_vqe_gradient_path.jsonl";
  EXPECT_TRUE(obs::RunReport::global().open(path));
  r = run_vqe_on(h, ansatz, opts);
  obs::RunReport::global().close();
  std::string method;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    const obs::Json j = obs::Json::parse(line);
    if (j.at("kind").string == "vqe_setup") method = j.at("gradient").string;
  }
  std::remove(path.c_str());
  return method;
}

TEST(AdjointGradient, FallsBackToCentralDifferencesWhereTheMpsTruncates) {
  // A bond cap below the exact bond, a cutoff that truncates at the exact
  // bond, and H10 at D = 16 keep central differences: the run follows
  // gradient(x, eps) bit for bit and says so in its vqe_setup record. At
  // the exact bond the same record says "adjoint".
  const Solved h4 = solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const Solved h10 = solve(chem::Molecule::hydrogen_chain(10, 1.8));
  UccsdOptions window;
  window.distance_window = 2;
  struct Case {
    std::string name;
    pauli::QubitOperator h;
    UccsdAnsatz ansatz;
    sim::MpsOptions mps;
  };
  sim::MpsOptions capped, cut, d16;
  capped.max_bond = 4;
  cut.max_bond = 16;
  cut.svd_cutoff = 1e-3;
  d16.max_bond = 16;
  const pauli::QubitOperator h4_op = chem::molecular_qubit_hamiltonian(h4.mo);
  const std::vector<Case> cases = {
      {"H4 D=4", h4_op, build_uccsd(4, 2, 2), capped},
      {"H4 cutoff 1e-3", h4_op, build_uccsd(4, 2, 2), cut},
      {"H10 window 2", chem::molecular_qubit_hamiltonian(h10.mo),
       build_uccsd(10, 5, 5, window), d16}};
  for (const Case& c : cases) {
    VqeOptions opts;
    opts.mps = c.mps;
    opts.optimizer.max_iterations = 1;
    const EnergyEvaluator eval(c.ansatz.circuit, c.h, c.mps);
    const std::vector<double> x0 = initial_parameters(c.ansatz);
    EXPECT_FALSE(eval.adjoint_gradient(x0).has_value()) << c.name;
    VqeResult run;
    EXPECT_EQ(reported_gradient_path(c.h, c.ansatz, opts, run), "central")
        << c.name;
    const OptimizerResult central = minimize_lbfgs(
        [&](const std::vector<double>& x) { return eval.energy(x); },
        [&](const std::vector<double>& x) {
          return eval.gradient(x, opts.gradient_eps);
        },
        x0, opts.optimizer);
    EXPECT_EQ(run.iterations, central.iterations) << c.name;
    expect_same_bits(run.parameters, central.parameters, c.name);
    expect_same_bits(run.history, central.history, c.name);
  }
  VqeOptions exact;
  exact.mps = d16;
  exact.optimizer.max_iterations = 1;
  VqeResult run;
  EXPECT_EQ(reported_gradient_path(h4_op, build_uccsd(4, 2, 2), exact, run),
            "adjoint");
}

}  // namespace
}  // namespace q2::vqe
