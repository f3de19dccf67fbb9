// Cost of the DMET chemical-potential fit with MPS-VQE fragment solvers. The
// quick shape is the benchmark ring: H10 with one-atom fragments at 1.8 bohr,
// 4-qubit fragment VQEs (D = 16, 25-iteration cap) fanned over 4 threads.
// It reports the µ-evaluations (fragment-solve sweeps) and the optimizer
// iterations summed over every fragment VQE — exact counts that bench_diff
// gates lower-better through their `_sweeps` suffix — and the wall time
// with its set-up share, from the run_dmet call to the first fragment solve
// (`_setup_seconds`, the cut perfbench's setup_s makes; both
// informational). `perf_floor_ok` holds the fit's correctness: converged to
// the target electron count within 1e-5, and within 0.1 mHa of DMET with the
// exact FCI fragment solver. Two-site updates are not gated: they follow the
// optimizer trajectory, which can change with the SIMD ISA.
//
//   ./bench_dmet [--quick] [--json=BENCH_x.json]
//
// Without --quick it also runs the H6 ring with two-atom fragments at
// 2.2 bohr (8-qubit fragment VQEs, same options), where N(µ) is less linear;
// it takes about a minute on 4 cores.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "dmet/dmet_driver.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace q2;

constexpr std::size_t kThreads = 4;

struct RingRun {
  dmet::DmetResult result;
  double seconds = 0.0;
  double setup_seconds = 0.0;  ///< run_dmet call to the first fragment solve
  std::uint64_t vqe_iterations = 0;
  std::uint64_t energy_evaluations = 0;
  double fci_gap_mha = 0.0;  ///< |E_DMET-VQE − E_DMET-FCI|
  bool ok = false;
};

RingRun run_ring(int n_atoms, double bond, std::size_t atoms_per_fragment) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(n_atoms, bond);
  dmet::DmetOptions opts;
  opts.fragments =
      dmet::uniform_atom_groups(std::size_t(n_atoms), atoms_per_fragment);
  opts.parallel.n_threads = kThreads;
  vqe::VqeOptions vopts;
  vopts.mps.max_bond = 16;
  vopts.mps.parallel.n_threads = 1;  // parallel across fragments, not terms
  vopts.optimizer.max_iterations = 25;
  std::atomic<std::uint64_t> iterations{0};
  vopts.optimizer.iteration_observer = [&](int, double, double) {
    iterations.fetch_add(1, std::memory_order_relaxed);
  };
  const obs::Counter& evaluations =
      obs::Registry::global().counter("vqe.energy_evaluations");

  RingRun run;
  const std::uint64_t evaluations0 = evaluations.value();
  const Timer timer;
  // The first solve to start marks the end of set-up; run_dmet's barrier
  // orders its write before the read below.
  std::atomic<bool> solving{false};
  const dmet::FragmentSolver vqe = dmet::make_vqe_solver(vopts);
  const dmet::FragmentSolver timed = [&](const dmet::EmbeddingProblem& problem,
                                         const chem::MoIntegrals& solver_mo) {
    if (!solving.exchange(true)) run.setup_seconds = timer.seconds();
    return vqe(problem, solver_mo);
  };
  run.result = dmet::run_dmet(mol, opts, timed);
  run.seconds = timer.seconds();
  run.vqe_iterations = iterations.load();
  run.energy_evaluations = evaluations.value() - evaluations0;

  const dmet::DmetResult fci =
      dmet::run_dmet(mol, opts, dmet::make_fci_solver());
  run.fci_gap_mha = std::abs(run.result.energy - fci.energy) * 1e3;
  run.ok = run.result.converged &&
           std::abs(run.result.total_electrons - n_atoms) <=
               opts.electron_tolerance &&
           run.fci_gap_mha <= 0.1;
  return run;
}

void record(bench::BenchReport& report, const std::string& tag,
            const std::string& label, const RingRun& run) {
  report.set(tag + "_mu_sweeps", run.result.mu_iterations);
  report.set(tag + "_vqe_sweeps", double(run.vqe_iterations));
  report.set(tag + "_energy_evaluations", double(run.energy_evaluations));
  report.set(tag + "_fci_gap_mha", run.fci_gap_mha);
  report.set(tag + "_seconds", run.seconds);
  report.set(tag + "_setup_seconds", run.setup_seconds);
  bench::row({label, std::to_string(run.result.mu_iterations),
              std::to_string(run.vqe_iterations),
              std::to_string(run.energy_evaluations),
              bench::fmt(run.fci_gap_mha, 4), bench::fmt(run.seconds, 3),
              bench::fmt(run.setup_seconds, 4), run.ok ? "ok" : "FAIL"});
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bool quick = false;
  std::string name = "dmet";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick")
      quick = true;
    else if (arg.rfind("--json=", 0) == 0)
      name = bench::json_flag_name(arg.substr(7), name);
  }

  bench::BenchReport report(name);
  report.set("n_threads", double(kThreads));
  report.set("hardware_threads", double(par::ThreadPool::global().size()));
  bench::header("DMET chemical-potential fit, MPS-VQE fragments (D = 16, "
                "25 iterations), " + std::to_string(kThreads) + " threads");
  bench::row({"ring", "mu sweeps", "VQE iters", "energy evals",
              "|E-E_fci| mHa", "seconds", "set-up s", "check"});
  const RingRun ring10 = run_ring(10, 1.8, 1);
  record(report, "ring10", "H10 1-atom 1.8", ring10);
  bool ok = ring10.ok;
  if (!quick) {
    const RingRun h6 = run_ring(6, 2.2, 2);
    record(report, "h6_ring", "H6 2-atom 2.2", h6);
    ok = ok && h6.ok;
  }
  report.set("perf_floor_ok", ok ? 1.0 : 0.0);
  const bool written = report.write();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok && written ? 0 : 1;
}
