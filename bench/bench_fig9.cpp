// Fig. 9: the memory-efficient circuit-storage scheme, plus the lazy-reorder
// compile pass that rides on top of it. The storage baseline stores one full
// Hadamard-test circuit per Pauli string and re-binds all of them at every
// parameter update (what "synchronizing the circuits after each optimization
// step" costs); the paper's scheme keeps a single parametric ansatz replica
// and constant measurement tails. The paper reports ~15x speedup and ~20x
// memory reduction for (H2)3 / LiH / H2O (919 / 630 / 1085 circuits).
//
// Sections:
//   (1) store-all vs memory-efficient circuit storage (memory, manage, exec);
//   (2) eager SWAP routing vs compile_for_mps on the UCCSD ansatz — exact
//       SWAP / two-site-update counts and MPS throughput in two-site
//       updates per second (a fused gate is one update, so the two runs'
//       rates count the same unit of work);
//   (3) direct measurement — QWC group count, the per-term sweep count,
//       and the measurement MPO's exact environment updates and its
//       agreement with the per-term energy.
//
// `--quick --json=BENCH_fig9_quick.json` is the shape the ctest `perf` label
// runs through tools/bench_diff: the *_swaps / *_updates keys are exact
// deterministic counts (hard-gated), the *_per_s keys are throughput floors.
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuit/reorder.hpp"
#include "circuit/routing.hpp"
#include "pauli/grouping.hpp"
#include "sim/hadamard_test.hpp"
#include "sim/mps.hpp"
#include "vqe/energy.hpp"
#include "vqe/uccsd.hpp"

namespace {

using namespace q2;

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

circ::Circuit bind_parameters(const circ::Circuit& c,
                              const std::vector<double>& params) {
  circ::Circuit bound(c.n_qubits());
  for (circ::Gate g : c.gates()) {
    if (g.is_parametric()) {
      g.theta = g.angle(params);
      g.param_index = -1;
    }
    bound.append(std::move(g));
  }
  return bound;
}

std::size_t count_swaps(const circ::Circuit& c) {
  std::size_t n = 0;
  for (const circ::Gate& g : c.gates())
    if (g.kind == circ::GateKind::kSwap) ++n;
  return n;
}

std::size_t count_two_site_updates(const circ::Circuit& c) {
  std::size_t n = 0;
  for (const circ::Gate& g : c.gates())
    if (g.qubits[1] >= 0) ++n;
  return n;
}

// --- Section 1: store-all vs memory-efficient circuit storage --------------
void storage_section(bench::BenchReport& report, bool quick) {
  bench::header("Fig. 9: store-all vs memory-efficient circuit storage");
  bench::row({"system", "circuits", "mem ratio", "manage ratio",
              "exec speedup"});

  struct Case {
    const char* name;
    chem::Molecule mol;
  };
  std::vector<Case> cases = {{"(H2)3", chem::Molecule::h2_trimer()}};
  if (!quick) {
    cases.push_back({"LiH", chem::Molecule::lih()});
    cases.push_back({"H2O", chem::Molecule::h2o()});
  }

  for (const Case& c : cases) {
    const bench::SolvedMolecule s = bench::solve(c.mol);
    const int ne = c.mol.n_electrons();
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    const vqe::UccsdAnsatz ansatz =
        vqe::build_uccsd(s.mo.n_orbitals(), ne / 2, ne / 2);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);

    sim::MpsOptions mps_opts;
    mps_opts.max_bond = 16;
    const vqe::EnergyEvaluator store_all(ansatz.circuit, h, mps_opts,
                                         vqe::MeasurementMode::kHadamardTest,
                                         vqe::CircuitStorage::kStoreAll);
    const vqe::EnergyEvaluator efficient(
        ansatz.circuit, h, mps_opts, vqe::MeasurementMode::kHadamardTest,
        vqe::CircuitStorage::kMemoryEfficient);

    // (a) Memory held in circuit storage.
    const double mem_ratio = double(store_all.stored_circuit_bytes()) /
                             double(efficient.stored_circuit_bytes());

    // (b) Per-iteration circuit management: the store-all baseline copies
    // and re-binds every circuit when the parameters change; the efficient
    // scheme touches one replica. Modeled by binding each representation.
    const auto bind_all = [&params](const std::vector<circ::Circuit>& cs) {
      std::size_t gates = 0;
      for (const auto& circ_k : cs)
        gates += bind_parameters(circ_k, params).size();
      return gates;
    };
    // Rebuild the full circuit set once to measure the bind cost.
    std::vector<circ::Circuit> full_set;
    full_set.reserve(store_all.n_terms());
    for (const auto& [p, coeff] : store_all.terms())
      full_set.push_back(sim::hadamard_test_circuit(ansatz.circuit, p));
    Timer t_manage_all;
    const std::size_t g1 = bind_all(full_set);
    const double manage_all = t_manage_all.seconds();
    std::vector<circ::Circuit> one_replica = {ansatz.circuit};
    Timer t_manage_eff;
    const std::size_t g2 = bind_all(one_replica);
    const double manage_eff = t_manage_eff.seconds();

    // (c) End-to-end evaluation on a small circuit subset.
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < 4; ++i)
      subset.push_back(i * store_all.n_terms() / 4);
    Timer t_all;
    store_all.partial_energy(params, subset);
    const double all_s = t_all.seconds() + manage_all;
    Timer t_eff;
    efficient.partial_energy(params, subset);
    const double eff_s = t_eff.seconds() + manage_eff;

    bench::row({c.name, std::to_string(store_all.circuit_count()),
                bench::fmt(mem_ratio, 0) + "x",
                bench::fmt(manage_all / std::max(manage_eff, 1e-9), 0) + "x",
                bench::fmt(all_s / eff_s, 2) + "x"});
    report.set(std::string(c.name) + "_mem_ratio", mem_ratio);
    report.set(std::string(c.name) + "_exec_speedup", all_s / eff_s);
    (void)g1;
    (void)g2;
  }
}

// --- Section 2: eager SWAP routing vs the lazy-reorder compile pass --------
bool compile_section(bench::BenchReport& report, bool quick) {
  bench::header("Lazy reorder: eager SWAP routing vs compile_for_mps (UCCSD)");
  bench::row({"system", "eager swaps", "compiled", "elided", "fused",
              "run speedup"});
  bool ok = true;

  struct Case {
    const char* key;
    chem::Molecule mol;
  };
  std::vector<Case> cases = {{"h4", chem::Molecule::hydrogen_chain(4, 1.8)}};
  if (!quick) cases.push_back({"lih", chem::Molecule::lih()});

  for (const Case& c : cases) {
    const bench::SolvedMolecule s = bench::solve(c.mol);
    const int ne = c.mol.n_electrons();
    const vqe::UccsdAnsatz ansatz =
        vqe::build_uccsd(s.mo.n_orbitals(), ne / 2, ne / 2);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);
    const int n = int(ansatz.circuit.n_qubits());

    // Eager baseline: bind, then bracket every long-range gate with full
    // SWAP chains both ways.
    const circ::Circuit bound = bind_parameters(ansatz.circuit, params);
    const circ::Circuit eager = circ::route_to_nearest_neighbour(bound);
    const std::size_t eager_swaps = count_swaps(eager);
    const std::size_t eager_updates = count_two_site_updates(eager);

    // Lazy compile: permutation-tracked reorder + fusion, built once per
    // ansatz structure and replayed with fresh parameters.
    const circ::CompiledCircuit compiled =
        circ::compile_for_mps(ansatz.circuit);
    const std::size_t compiled_swaps = compiled.stats.swaps_materialized;
    const std::size_t compiled_updates =
        count_two_site_updates(compiled.gates);

    sim::MpsOptions opts;
    opts.max_bond = quick ? 24 : 48;
    const int reps = quick ? 2 : 3;
    const double t_eager = time_best_of(reps, [&] {
      sim::Mps mps(n, opts);
      mps.run(eager);
    });
    const double t_compiled = time_best_of(reps, [&] {
      sim::Mps mps(n, opts);
      mps.run(compiled, params);
    });
    const double eager_per_s = double(eager_updates) / t_eager;
    const double compiled_per_s = double(compiled_updates) / t_compiled;
    const double run_speedup = t_eager / t_compiled;

    bench::row({c.key, std::to_string(eager_swaps),
                std::to_string(compiled_swaps),
                std::to_string(compiled.stats.swaps_elided),
                std::to_string(compiled.stats.gates_fused),
                bench::fmt(run_speedup, 2) + "x"});

    const std::string k = c.key;
    report.set(k + "_uccsd_eager_swaps", double(eager_swaps));
    report.set(k + "_uccsd_compiled_swaps", double(compiled_swaps));
    report.set(k + "_uccsd_eager_updates", double(eager_updates));
    report.set(k + "_uccsd_compiled_updates", double(compiled_updates));
    report.set(k + "_uccsd_gates_fused", double(compiled.stats.gates_fused));
    report.set(k + "_eager_updates_per_s", eager_per_s);
    report.set(k + "_compiled_updates_per_s", compiled_per_s);
    report.set(k + "_compiled_run_speedup", run_speedup);

    // The headline floor: the compile pass must materialize at most 70% of
    // the SWAPs the eager router pays on the UCCSD ansatz.
    if (double(compiled_swaps) > 0.7 * double(eager_swaps)) {
      std::printf("FAIL: %s compiled swaps %zu > 0.7 * eager swaps %zu\n",
                  c.key, compiled_swaps, eager_swaps);
      ok = false;
    }
  }
  return ok;
}

// --- Section 3: direct measurement, per term and through the MPO ----------
bool measurement_section(bench::BenchReport& report, bool quick) {
  bench::header("Direct measurement: transfer work, H4 direct");
  bool ok = true;

  const bench::SolvedMolecule s =
      bench::solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(s.mo.n_orbitals(), 2, 2);
  const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);

  sim::MpsOptions opts;
  opts.max_bond = quick ? 24 : 48;
  const vqe::EnergyEvaluator evaluator(ansatz.circuit, h, opts);
  std::vector<pauli::PauliString> strings;
  for (const auto& [p, c] : evaluator.terms()) strings.push_back(p);
  const std::size_t qwc_groups =
      pauli::group_qubitwise_commuting(strings).size();
  std::vector<std::size_t> all(evaluator.n_terms());
  std::iota(all.begin(), all.end(), std::size_t{0});

  obs::Counter& sweeps =
      obs::Registry::global().counter("mps.transfer_sweeps");
  obs::Counter& transfers =
      obs::Registry::global().counter("mps.transfer_site_ops");
  const std::uint64_t s0 = sweeps.value(), t0 = transfers.value();
  const double e_flat =
      evaluator.constant_term() + evaluator.partial_energy(params, all);
  const std::uint64_t flat_sweeps = sweeps.value() - s0;
  const std::uint64_t flat_transfers = transfers.value() - t0;
  const std::uint64_t s1 = sweeps.value(), t1 = transfers.value();
  const double e_mpo = evaluator.energy(params);
  const std::uint64_t mpo_sweeps = sweeps.value() - s1;
  const std::uint64_t mpo_updates = transfers.value() - t1;

  bench::row({"pauli terms", std::to_string(evaluator.n_terms())});
  bench::row({"QWC groups", std::to_string(qwc_groups)});
  bench::row({"measurement", "sweeps", "transfers"});
  bench::row({"per term", std::to_string(flat_sweeps),
              std::to_string(flat_transfers)});
  bench::row({"MPO", std::to_string(mpo_sweeps), std::to_string(mpo_updates)});
  report.set("h4_pauli_terms", double(evaluator.n_terms()));
  report.set("h4_measurement_groups", double(qwc_groups));
  report.set("h4_flat_transfer_sweeps", double(flat_sweeps));
  // Exact (site, in-state) environment updates of one MPO sweep: a builder
  // that loses its minimum covers raises it and fails the zero-tolerance
  // gate.
  report.set("h4_mpo_env_updates", double(mpo_updates));

  // The MPO is exact but sums in another order: it must agree with the
  // per-term energy to rounding, in one sweep, with fewer environment
  // updates than the per-term transfers.
  const double mpo_error = std::abs(e_mpo - e_flat);
  bench::row({"|MPO - per term| Ha", bench::fmte(mpo_error)});
  if (!(mpo_error <= 1e-10) || mpo_sweeps != 1 ||
      mpo_updates >= flat_transfers) {
    std::printf("FAIL: MPO energy %.17g vs per term %.17g (%llu sweeps, %llu "
                "updates against %llu transfers)\n",
                e_mpo, e_flat, (unsigned long long)mpo_sweeps,
                (unsigned long long)mpo_updates,
                (unsigned long long)flat_transfers);
    ok = false;
  }
  return ok;
}

int run(const std::string& report_name, bool quick) {
  bench::BenchReport report(report_name);
  report.set("hardware_threads", double(std::thread::hardware_concurrency()));
  bool ok = true;

  storage_section(report, quick);
  ok = compile_section(report, quick) && ok;
  ok = measurement_section(report, quick) && ok;

  if (!quick)
    std::printf(
        "\nPaper shape check: the paper reports ~20x memory reduction and"
        " ~15x speedup\n(including cross-process synchronization). Our"
        " gate-level store widens the memory\ngap beyond 20x; the manage"
        " column isolates the per-iteration rebinding cost the\nscheme"
        " eliminates.\n");

  report.set("perf_floor_ok", ok ? 1.0 : 0.0);
  report.write();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  q2::bench::init(argc, argv);
  std::string name = "fig9";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg.rfind("--json=", 0) == 0)
      name = q2::bench::json_flag_name(arg.substr(7), "fig9");
  }
  return run(name, quick);
}
