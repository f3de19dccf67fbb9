// On-node and distributed parallel evaluation of a full H4/STO-3G UCCSD
// energy and its gradients: the level-2 Pauli-measurement sweep, the
// parameter-shift gradient, the central-difference gradient dealt over
// pool workers and over ranks, each against its serial run, and the adjoint
// gradient against the parameter-shift one. Verifies that every parallel
// result is byte-identical to serial — the index-order reduction and
// single-owner gradient guarantees.
//
//   ./bench_parallel_energy [--threads=N] [--quick] [--json=BENCH_x.json]
//                           [reps]
//
// N defaults to 4 (the acceptance configuration); speedups are only
// meaningful with >= N hardware cores. `--quick` runs only the gradient
// section, the shape the ctest `perf` label gates: its `*_updates` keys are
// exact two-site-update counts (zero tolerance in bench_diff, so a change
// that loses prefix sharing, or walks psi back again instead of restoring
// it, fails on any host): `h4_adjoint_gradient_updates` is a cold adjoint
// gradient (one recorded preparation and lambda's walk, 2 492), and
// `h4_lbfgs_run_updates` a whole 3-iteration L-BFGS run, whose gradients
// restore psi from the recordings the energy evaluations kept (11 216).
// Wall times sit in informational `*_s` keys, the bytes one H4 recording
// holds in the informational `h4_adjoint_recorded_bytes`, and
// `perf_floor_ok` holds the byte-identity of the serial, threaded and
// 4-rank gradients and the adjoint gradient's two floors (1e-10 of
// parameter shift, 5x fewer updates than central differences).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.hpp"
#include "parallel/comm.hpp"
#include "parallel/thread_pool.hpp"
#include "vqe/vqe_driver.hpp"

namespace {

using namespace q2;

constexpr int kRanks = 4;

double time_energy(const vqe::EnergyEvaluator& eval,
                   const std::vector<double>& params, int reps, double* e) {
  Timer t;
  for (int r = 0; r < reps; ++r) *e = eval.energy(params);
  return t.seconds() / reps;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Two-site updates (the mps.gates counter) of one call and its best wall
// time over `reps` calls. Best-of, because the first parallel run after a
// serial phase can take up to twice as long while idle cores ramp up.
template <typename Fn>
std::pair<std::uint64_t, double> measure(int reps, Fn&& fn) {
  obs::Counter& updates = obs::Registry::global().counter("mps.gates");
  const std::uint64_t before = updates.value();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return {(updates.value() - before) / std::uint64_t(reps), best};
}

struct H4Case {
  pauli::QubitOperator h;
  vqe::UccsdAnsatz ansatz;
  std::vector<double> params;
};

void energy_section(const H4Case& c, std::size_t n_threads, int reps,
                    bench::BenchReport& report) {
  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = n_threads;
  double e1 = 0, eN = 0;
  struct Case {
    const char* name;
    vqe::MeasurementMode mode;
    int reps;
  };
  const Case cases[] = {
      {"direct_sweep", vqe::MeasurementMode::kDirect, reps},
      {"hadamard_sweep", vqe::MeasurementMode::kHadamardTest, 1},
  };
  obs::Counter& sweeps = obs::Registry::global().counter("mps.transfer_sweeps");
  for (const Case& k : cases) {
    const vqe::EnergyEvaluator serial(c.ansatz.circuit, c.h, serial_mps,
                                      k.mode);
    const vqe::EnergyEvaluator parallel(c.ansatz.circuit, c.h, parallel_mps,
                                        k.mode);
    const std::uint64_t s0 = sweeps.value();
    const double t1 = time_energy(serial, c.params, k.reps, &e1);
    const std::uint64_t serial_sweeps = (sweeps.value() - s0) / k.reps;
    const std::uint64_t sN = sweeps.value();
    const double tN = time_energy(parallel, c.params, k.reps, &eN);
    const std::uint64_t parallel_sweeps = (sweeps.value() - sN) / k.reps;
    const bool identical = std::memcmp(&e1, &eN, sizeof(double)) == 0 &&
                           serial_sweeps == parallel_sweeps;
    bench::row({k.name, bench::fmte(t1), bench::fmte(tN),
                bench::fmt(t1 / tN, 2), identical ? "yes" : "NO"});
    report.set(std::string(k.name) + "_serial_seconds", t1);
    report.set(std::string(k.name) + "_parallel_seconds", tN);
    report.set(std::string(k.name) + "_speedup", t1 / tN);
    report.set(std::string(k.name) + "_identical", identical);
    report.set(std::string(k.name) + "_energy", eN);
    // The sweep count is part of the determinism contract: one MPO sweep
    // per direct evaluation, one per string in Hadamard-test mode, and the
    // thread count must not change it.
    report.set(std::string(k.name) + "_transfer_sweeps",
               double(serial_sweeps));
  }
  std::printf("\nenergy(serial) = %.17g\nenergy(parallel) = %.17g\n", e1, eN);
}

// Central-difference, parameter-shift and adjoint gradients: exact update
// counts (serial, worst rank of kRanks) and byte-identity across serial,
// threaded and distributed runs. Returns whether every gradient matched
// serial and the adjoint gradient held its floors: every entry within 1e-10
// of the parameter-shift gradient, and at least 5x fewer two-site updates
// than central differences.
bool gradient_section(const H4Case& c, std::size_t n_threads, bool quick,
                      bench::BenchReport& report) {
  const double eps = vqe::kGradientEps;
  sim::MpsOptions serial_mps;
  serial_mps.parallel.n_threads = 1;
  sim::MpsOptions parallel_mps;
  parallel_mps.parallel.n_threads = n_threads;
  const vqe::EnergyEvaluator serial(c.ansatz.circuit, c.h, serial_mps);
  const vqe::EnergyEvaluator parallel(c.ansatz.circuit, c.h, parallel_mps);

  constexpr int kReps = 2;
  std::vector<double> g_serial, g_threads, g_ps, g_ps_threads;
  const auto [fd_updates, fd_serial_s] =
      measure(kReps, [&] { g_serial = serial.gradient(c.params, eps); });
  const double fd_threads_s =
      measure(kReps, [&] { g_threads = parallel.gradient(c.params, eps); })
          .second;

  // Each rank's work, measured alone: rank r runs the serial sweep over
  // gradient_share(r, kRanks), exactly what run_vqe_distributed runs there.
  std::uint64_t max_rank_updates = 0;
  for (int r = 0; r < kRanks; ++r) {
    const std::vector<std::size_t> share =
        serial.gradient_share(std::size_t(r), kRanks);
    max_rank_updates = std::max(
        max_rank_updates,
        measure(1, [&] { serial.gradient(c.params, eps, share); }).first);
  }
  std::vector<std::vector<double>> g_ranks(kRanks);
  const double fd_ranks_s = measure(kReps, [&] {
    par::World(kRanks).run([&](par::Comm& comm) {
      g_ranks[std::size_t(comm.rank())] =
          vqe::distributed_gradient(serial, c.params, eps, comm);
    });
  }).second;
  bool ranks_identical = true;
  for (const auto& g : g_ranks) ranks_identical &= same_bits(g, g_serial);

  const auto [ps_updates, ps_serial_s] =
      measure(1, [&] { g_ps = serial.parameter_shift_gradient(c.params); });
  double ps_threads_s = 0.0;
  if (!quick)
    ps_threads_s = measure(kReps, [&] {
      g_ps_threads = parallel.parameter_shift_gradient(c.params);
    }).second;

  // The adjoint gradient, cold: one recorded forward preparation and one
  // backward walk of lambda, checked entry by entry against the exact
  // parameter-shift gradient.
  std::vector<double> g_adjoint;
  const auto [adjoint_updates, adjoint_serial_s] = measure(kReps, [&] {
    g_adjoint = serial.adjoint_gradient(c.params).value_or(
        std::vector<double>{});
  });
  double adjoint_gap = g_adjoint.size() == g_ps.size() ? 0.0 : 1e300;
  for (std::size_t k = 0; k < g_adjoint.size() && k < g_ps.size(); ++k)
    adjoint_gap = std::max(adjoint_gap, std::abs(g_adjoint[k] - g_ps[k]));
  const bool adjoint_ok = adjoint_gap <= 1e-10 &&
                          5 * adjoint_updates <= fd_updates;

  const bool threads_identical = same_bits(g_threads, g_serial);
  const bool ps_identical = quick || same_bits(g_ps_threads, g_ps);
  bench::row({"fd_gradient", bench::fmte(fd_serial_s),
              bench::fmte(fd_threads_s),
              bench::fmt(fd_serial_s / fd_threads_s, 2),
              threads_identical ? "yes" : "NO"});
  bench::row({"fd_gradient_ranks", bench::fmte(fd_serial_s),
              bench::fmte(fd_ranks_s), bench::fmt(fd_serial_s / fd_ranks_s, 2),
              ranks_identical ? "yes" : "NO"});
  if (!quick)
    bench::row({"parameter_shift", bench::fmte(ps_serial_s),
                bench::fmte(ps_threads_s),
                bench::fmt(ps_serial_s / ps_threads_s, 2),
                ps_identical ? "yes" : "NO"});
  std::printf("\ntwo-site updates: fd serial %llu, fd worst of %d ranks %llu, "
              "parameter shift serial %llu, adjoint %llu\n",
              (unsigned long long)fd_updates, kRanks,
              (unsigned long long)max_rank_updates,
              (unsigned long long)ps_updates,
              (unsigned long long)adjoint_updates);
  std::printf("adjoint gradient: %.3e s serial, max |adjoint - parameter "
              "shift| = %.2e (bound 1e-10), %s\n",
              adjoint_serial_s, adjoint_gap, adjoint_ok ? "ok" : "FAIL");

  report.set("h4_parameters", double(c.ansatz.n_parameters));
  report.set("h4_fd_gradient_updates", double(fd_updates));
  report.set("h4_fd_gradient_max_rank_updates", double(max_rank_updates));
  report.set("h4_ps_gradient_updates", double(ps_updates));
  report.set("h4_fd_gradient_serial_s", fd_serial_s);
  report.set("h4_fd_gradient_threads_s", fd_threads_s);
  report.set("h4_fd_gradient_ranks_s", fd_ranks_s);
  report.set("h4_ps_gradient_serial_s", ps_serial_s);
  if (!quick) report.set("h4_ps_gradient_threads_s", ps_threads_s);
  report.set("h4_adjoint_gradient_updates", double(adjoint_updates));
  report.set("h4_adjoint_gradient_serial_s", adjoint_serial_s);

  // The bytes one recorded preparation copies (the kept slot's recording
  // after one energy evaluation).
  obs::Counter& recorded = obs::Registry::global().counter("mps.recorded_bytes");
  const std::uint64_t recorded_before = recorded.value();
  serial.energy(c.params);
  const std::uint64_t recorded_bytes = recorded.value() - recorded_before;
  std::printf("one recorded H4 preparation: %llu bytes\n",
              (unsigned long long)recorded_bytes);
  report.set("h4_adjoint_recorded_bytes", double(recorded_bytes));

  // A whole run as run_vqe_on makes it (3 L-BFGS iterations, one thread,
  // D = 16): 5 energies of 1 248 updates and 4 gradients, each of which
  // restores psi from the recording its point's energy evaluation kept and
  // walks only lambda back (1 244).
  vqe::VqeOptions run_options;
  run_options.mps.max_bond = 16;
  run_options.mps.parallel.n_threads = 1;
  run_options.optimizer.max_iterations = 3;
  const auto [run_updates, run_s] = measure(
      1, [&] { vqe::run_vqe_on(c.h, c.ansatz, run_options); });
  std::printf("3-iteration L-BFGS run: %llu two-site updates, %.3e s\n",
              (unsigned long long)run_updates, run_s);
  report.set("h4_lbfgs_run_updates", double(run_updates));
  report.set("h4_lbfgs_run_s", run_s);
  return threads_identical && ranks_identical && ps_identical && adjoint_ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bool quick = false;
  std::string name = "parallel_energy";
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick")
      quick = true;
    else if (arg.rfind("--json=", 0) == 0)
      name = bench::json_flag_name(arg.substr(7), name);
    else
      reps = std::atoi(argv[i]);
  }

  const std::size_t n_threads = [] {
    par::ParallelOptions probe;
    const std::size_t resolved = par::resolve_threads(probe);
    // Unconfigured resolution falls back to the pool; the acceptance
    // configuration is 4 threads.
    return resolved > 1 ? resolved : std::size_t(4);
  }();

  const bench::SolvedMolecule s =
      bench::solve(chem::Molecule::hydrogen_chain(4, 1.8));
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(4, 2, 2);
  const H4Case c{chem::molecular_qubit_hamiltonian(s.mo), ansatz,
                 vqe::initial_parameters(ansatz, 0.05)};

  bench::BenchReport report(name);
  report.set("n_threads", double(n_threads));
  report.set("n_ranks", double(kRanks));
  report.set("hardware_threads", double(par::ThreadPool::global().size()));
  bench::header("Parallel energy and gradients: H4/STO-3G UCCSD, " +
                std::to_string(n_threads) + " threads / " +
                std::to_string(kRanks) + " ranks vs 1");
  bench::row({"workload", "serial s", "parallel s", "speedup", "identical"});
  if (!quick) energy_section(c, n_threads, reps, report);
  const bool ok = gradient_section(c, n_threads, quick, report);
  report.set("perf_floor_ok", ok ? 1.0 : 0.0);
  const bool written = report.write();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok && written ? 0 : 1;
}
