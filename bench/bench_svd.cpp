// Truncated-SVD sweep (`bench_svd --json=BENCH_svd.json`): the Golub-Kahan
// engine vs the frozen scalar cyclic-Jacobi reference across operand shapes
// and bond-fraction truncations, asserting the perf floor (engine >= 3x the
// scalar reference on 512x512 complex at max_bond = 64) and recording the
// trajectory point next to BENCH_gemm.json, with the implicit-QR sweep count
// per shape. A second section measures MPS two-qubit gate throughput, whose
// hot loop is exactly this truncated SVD, and its SVD share of the
// mps/svd + mps/contract span time.
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builder.hpp"
#include "common/rng.hpp"
#include "linalg/svd.hpp"
#include "linalg/svd_reference.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/mps.hpp"

namespace {

using namespace q2;

la::CMatrix random_matrix(std::size_t m, std::size_t n, unsigned seed) {
  Rng rng(seed);
  la::CMatrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.complex_normal();
  return a;
}

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::string shape_key(std::size_t m, std::size_t n, std::size_t d) {
  return std::to_string(m) + "x" + std::to_string(n) + "_d" +
         std::to_string(d);
}

// `quick` trims the sweep to <= 256x256 shapes and relaxes the speedup
// floor — the shape the ctest `perf` label runs through tools/bench_diff.
int run(const std::string& report_name, bool quick) {
  bench::BenchReport report(report_name);
  const unsigned cores = std::thread::hardware_concurrency();
  report.set("hardware_threads", double(cores));
  bool ok = true;

  bench::header(
      "Truncated SVD sweep: Golub-Kahan engine vs scalar cyclic reference");
  bench::row({"shape", "max_bond", "reference (s)", "new 1T (s)", "speedup",
              "QR sweeps"});

  struct Shape {
    std::size_t m, n;
  };
  // The quick floor is deliberately loose: the engine's edge over the scalar
  // reference is smaller at 256 than at 512, and the cross-run trend is
  // bench_diff's job. The in-binary floor only catches catastrophic breakage.
  const std::size_t floor_mn = quick ? 256 : 512;
  const double speedup_floor = quick ? 1.8 : 3.0;
  const std::vector<Shape> shapes =
      quick ? std::vector<Shape>{{128, 128}, {256, 256}}
            : std::vector<Shape>{{128, 128},
                                 {256, 256},
                                 {512, 128},
                                 {128, 512},
                                 {512, 512}};
  const std::vector<unsigned> fracs =
      quick ? std::vector<unsigned>{4u, 2u} : std::vector<unsigned>{8u, 4u, 2u};
  double floor_speedup = 0;  // floor_mn^2 @ max_bond 64
  for (const Shape shape : shapes) {
    const std::size_t m = shape.m, n = shape.n;
    const std::size_t k = std::min(m, n);
    const la::CMatrix a = random_matrix(m, n, 21);

    // The full scalar reference is timed once per shape (it is the slow
    // baseline, gemm_naive's role in the GEMM sweep) and reused as the
    // correctness oracle for every truncation of the same operand.
    la::SvdResult ref;
    const double t_ref = time_best_of(1, [&] {
      ref = la::svd_jacobi_reference(a);
    });
    report.set("ref_" + std::to_string(m) + "x" + std::to_string(n) + "_s",
               t_ref);

    for (const std::size_t frac : fracs) {
      const std::size_t max_bond = std::max<std::size_t>(1, k / frac);
      const int reps = k <= 256 ? 3 : 2;

      la::SvdWorkspace ws;
      la::TruncatedSpectrum f;
      const double t_new = time_best_of(reps, [&] {
        f = la::svd_truncated_ws(ws, a.data(), m, n, n, nullptr, max_bond,
                                 0.0, /*want_u=*/true);
      });

      // Correctness: kept spectrum must match the reference oracle.
      for (std::size_t i = 0; i < f.keep; ++i) {
        if (std::abs(f.s[i] - ref.s[i]) > 1e-10 * (1 + ref.s[0])) {
          std::printf("FAIL: spectrum divergence at %zux%zu d=%zu i=%zu\n", m,
                      n, max_bond, i);
          ok = false;
          break;
        }
      }

      // Determinism: the same call on a pool thread with its own workspace
      // must reproduce every output bit.
      par::ParallelOptions two;
      two.n_threads = 2;
      two.grain = 1;
      std::vector<char> same(2, 1);
      par::parallel_for(two, 0, same.size(), [&](std::size_t i) {
        la::SvdWorkspace ws2;
        const la::TruncatedSpectrum f2 = la::svd_truncated_ws(
            ws2, a.data(), m, n, n, nullptr, max_bond, 0.0, true);
        same[i] = f2.keep == f.keep &&
                  std::memcmp(f.s, f2.s, f.keep * sizeof(double)) == 0 &&
                  std::memcmp(f.vh, f2.vh, f.keep * n * sizeof(cplx)) == 0 &&
                  std::memcmp(f.u, f2.u, m * f.keep * sizeof(cplx)) == 0;
      });
      if (!same[0] || !same[1]) {
        std::printf("FAIL: pool-thread calls differ at %zux%zu d=%zu\n", m,
                    n, max_bond);
        ok = false;
      }

      const double speedup = t_ref / t_new;
      bench::row({std::to_string(m) + "x" + std::to_string(n),
                  std::to_string(max_bond), bench::fmte(t_ref),
                  bench::fmte(t_new), bench::fmt(speedup, 2) + "x",
                  std::to_string(f.sweeps)});
      const std::string key = shape_key(m, n, max_bond);
      report.set("svd_" + key + "_new_1t_s", t_new);
      report.set("svd_" + key + "_speedup_vs_ref", speedup);
      report.set("svd_" + key + "_qr_sweeps", double(f.sweeps));
      if (m == floor_mn && n == floor_mn && max_bond == 64)
        floor_speedup = speedup;
    }
  }

  report.set("speedup_vs_reference_" + std::to_string(floor_mn) + "_d64",
             floor_speedup);
  std::printf(
      "\n%zux%zu complex @ max_bond 64: new engine vs scalar reference "
      "%.2fx (floor %.1fx)\n",
      floor_mn, floor_mn, floor_speedup, speedup_floor);
  if (floor_speedup < speedup_floor) {
    std::printf("FAIL: single-thread speedup below the %.1fx floor\n",
                speedup_floor);
    ok = false;
  }

  // --- MPS gate throughput (the consumer of the truncated SVD) -------------
  bench::header("MPS two-qubit gate throughput (brickwork)");
  {
    const int n_qubits = quick ? 10 : 16;
    Rng rng(31);
    sim::MpsOptions opts;
    opts.max_bond = quick ? 32 : 64;
    sim::Mps mps(n_qubits, opts);
    mps.run(circ::brickwork_circuit(n_qubits, quick ? 4 : 8, rng));
    const circ::Circuit layer = circ::brickwork_circuit(n_qubits, 2, rng);
    const double t_layers = time_best_of(3, [&] { mps.run(layer); });
    const double truncation_error = mps.truncation_error();
    // The SVD share and sweep count come from one more layer run with
    // profiling on, as span and counter deltas (a --profile= run keeps its
    // own tree).
    const bool was_profiling = obs::profiling_enabled();
    obs::set_profiling(true);
    const std::vector<obs::ProfileNode> before = obs::profile_snapshot();
    const std::uint64_t gates0 = counter_value("mps.gates");
    const std::uint64_t sweeps0 = counter_value("mps.svd_sweeps");
    mps.run(layer);
    const double gates = double(counter_value("mps.gates") - gates0);
    const double sweeps = double(counter_value("mps.svd_sweeps") - sweeps0);
    const std::vector<obs::ProfileNode> after = obs::profile_snapshot();
    obs::set_profiling(was_profiling);
    const double svd_s = bench::span_seconds(after, "mps/svd") -
                         bench::span_seconds(before, "mps/svd");
    const double contract_s = bench::span_seconds(after, "mps/contract") -
                              bench::span_seconds(before, "mps/contract");
    const double gates_per_s = double(layer.size()) / t_layers;
    bench::row({"gates/s", bench::fmt(gates_per_s, 1)});
    bench::row({"truncation_error", bench::fmte(truncation_error)});
    bench::row({"QR sweeps/gate", bench::fmt(sweeps / gates, 2)});
    report.set("mps_gate_throughput_per_s", gates_per_s);
    report.set("mps_truncation_error", truncation_error);
    report.set("mps_svd_seconds_frac",
               svd_s + contract_s > 0 ? svd_s / (svd_s + contract_s) : 0.0);
  }

  report.set("perf_floor_ok", ok ? 1.0 : 0.0);
  report.write();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  q2::bench::init(argc, argv);
  std::string name = "svd";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg.rfind("--json=", 0) == 0)
      name = q2::bench::json_flag_name(arg.substr(7), "svd");
  }
  return run(name, quick);
}
