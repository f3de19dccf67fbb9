// Google-benchmark microbenchmarks of the numerical kernels every figure
// rests on: complex GEMM, the Golub-Kahan SVD (next to its Jacobi oracle),
// the MPS two-site update and Pauli-string expectation sweeps.
//
// `bench_kernels --json=BENCH_gemm.json` instead runs the GEMM sweep: packed
// blocked kernel vs the naive reference across sizes and thread counts,
// asserting the perf floor (blocked >= 3x naive single-threaded at
// 512^3 complex; >= 2.5x scaling from 1 to 4 threads when the host has >= 4
// cores), then the MPS's single-tile product shapes at one thread, and
// writing the result trajectory via bench_util's BenchReport.
#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builder.hpp"
#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/simd.hpp"
#include "linalg/svd.hpp"
#include "linalg/svd_reference.hpp"
#include "sim/mps.hpp"

namespace {

using namespace q2;

la::CMatrix random_matrix(std::size_t m, std::size_t n, unsigned seed) {
  Rng rng(seed);
  la::CMatrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.complex_normal();
  return a;
}

void BM_GemmComplex(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const la::CMatrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(8 * n * n * n));
}
BENCHMARK(BM_GemmComplex)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmComplexThreaded(benchmark::State& state) {
  const std::size_t n = 256;
  const la::CMatrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  par::ParallelOptions opts;
  opts.n_threads = std::size_t(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::matmul(a, b, la::Op::kNone, la::Op::kNone, opts));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(8 * n * n * n));
}
BENCHMARK(BM_GemmComplexThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_SvdGolubKahan(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const la::CMatrix a = random_matrix(2 * n, 2 * n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::svd(a));
  }
}
BENCHMARK(BM_SvdGolubKahan)->Arg(16)->Arg(32)->Arg(64);

// The frozen scalar cyclic-Jacobi oracle, timed alongside the Golub-Kahan
// engine so the microbenchmark shows the same gap the bench_svd sweep
// asserts.
void BM_SvdJacobiReference(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const la::CMatrix a = random_matrix(2 * n, 2 * n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::svd_jacobi_reference(a));
  }
}
BENCHMARK(BM_SvdJacobiReference)->Arg(16)->Arg(32)->Arg(64);

void BM_MpsTwoQubitGate(benchmark::State& state) {
  const std::size_t d = std::size_t(state.range(0));
  const int n = 12;
  Rng rng(4);
  sim::MpsOptions opts;
  opts.max_bond = d;
  sim::Mps mps(n, opts);
  // Warm the bonds up to D with a few brickwork layers.
  mps.run(circ::brickwork_circuit(n, 6, rng));
  const circ::Circuit layer = circ::brickwork_circuit(n, 1, rng);
  for (auto _ : state) {
    mps.run(layer);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(layer.size()));
}
BENCHMARK(BM_MpsTwoQubitGate)->Arg(8)->Arg(16)->Arg(32);

void BM_MpsPauliExpectation(benchmark::State& state) {
  const int n = int(state.range(0));
  Rng rng(5);
  sim::MpsOptions opts;
  opts.max_bond = 16;
  sim::Mps mps(n, opts);
  mps.run(circ::brickwork_circuit(n, 4, rng));
  pauli::PauliString p{std::size_t(n)};
  for (int q = 0; q < n; ++q) p.set(std::size_t(q), pauli::P::Z);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mps.expectation(p));
  }
}
BENCHMARK(BM_MpsPauliExpectation)->Arg(8)->Arg(16)->Arg(32);

// --- GEMM sweep (--json=BENCH_gemm.json) -----------------------------------

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

// The single-tile products the MPS makes (gemm_raw, one thread, alpha = 1,
// beta = 0, operands read as the MPS lays them out), at GFLOP/s: E·[B0|B1]
// in the MPO sweep at D = 4, 8 and 16, [B0|B1]^†·(E·B) and the two-site
// contraction θ at D = 16, and the largest single-tile product (MC x KC x
// JB). Each shape is timed as the best of 7 batches of about 2e7 flops.
void run_single_tile_shapes(bench::BenchReport& report) {
  struct Shape {
    const char* key;
    std::size_t m, k, n;
    la::Op op_a;
  };
  using B = la::GemmBlocking;
  const Shape shapes[] = {
      {"gemm_mps_eb_d4_gflops_1t", 4, 4, 8, la::Op::kNone},
      {"gemm_mps_eb_d8_gflops_1t", 8, 8, 16, la::Op::kNone},
      {"gemm_mps_eb_d16_gflops_1t", 16, 16, 32, la::Op::kNone},
      {"gemm_mps_beb_d16_gflops_1t", 32, 16, 32, la::Op::kAdjoint},
      {"gemm_mps_theta_d16_gflops_1t", 32, 16, 32, la::Op::kNone},
      {"gemm_single_tile_bound_gflops_1t", B::kMC, B::kKC, B::kJB,
       la::Op::kNone}};
  par::ParallelOptions one;
  one.n_threads = 1;
  bench::header("MPS single-tile products (1 thread, best of 7)");
  bench::row({"m x k x n", "op(A)", "us/call", "GFLOP/s"});
  for (const Shape& s : shapes) {
    // op(A) is m x k: stored k x m for the adjoint.
    const bool ta = s.op_a != la::Op::kNone;
    const la::CMatrix a = random_matrix(ta ? s.k : s.m, ta ? s.m : s.k, 21);
    const la::CMatrix b = random_matrix(s.k, s.n, 22);
    la::CMatrix c(s.m, s.n);
    const double flops = 8.0 * double(s.m) * double(s.k) * double(s.n);
    const int reps = std::max(1, int(2e7 / flops));
    const double t = time_best_of(7, [&] {
      for (int r = 0; r < reps; ++r)
        la::gemm_raw(s.m, s.k, s.n, a.data(), a.cols(), s.op_a, b.data(),
                     s.n, la::Op::kNone, c.data(), s.n, one);
    }) / reps;
    const double gflops = flops / t / 1e9;
    bench::row({std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                    std::to_string(s.n),
                ta ? "adjoint" : "none", bench::fmt(t * 1e6, 3),
                bench::fmt(gflops, 2)});
    report.set(s.key, gflops);
  }
}

// `quick` trims the sweep to <= 256 and relaxes the speedup floor — the shape
// the ctest `perf` label runs through tools/bench_diff, where wall time and
// noise tolerance matter more than the full 512 trajectory point.
int run_gemm_sweep(const std::string& report_name, bool quick) {
  bench::BenchReport report(report_name);
  const unsigned cores = std::thread::hardware_concurrency();
  report.set("hardware_threads", double(cores));
  report.set("simd_isa", std::string(la::simd::isa_name(la::simd::active_isa())));
  bool ok = true;

  bench::header("GEMM sweep: packed blocked kernel vs naive reference");
  bench::row({"size", "naive (s)", "blocked 1T (s)", "speedup", "2T (s)",
              "4T (s)"});
  // The quick floor is deliberately loose: at 256 the blocked kernel's edge
  // over naive is smaller and noisier than at 512, and the cross-run trend is
  // bench_diff's job. The in-binary floor only catches catastrophic breakage.
  const std::size_t floor_n = quick ? 256 : 512;
  const double speedup_floor = quick ? 1.3 : 3.0;
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{128, 256}
            : std::vector<std::size_t>{128, 256, 512};
  double speedup_at_floor = 0, scaling_1_to_4 = 0;
  for (const std::size_t n : sizes) {
    const la::CMatrix a = random_matrix(n, n, 11), b = random_matrix(n, n, 12);
    const int reps = n <= 256 ? 3 : 1;

    la::CMatrix c_naive;
    const double t_naive =
        time_best_of(reps, [&] { la::gemm_naive(a, b, c_naive); });

    auto blocked_at = [&](std::size_t threads) {
      par::ParallelOptions opts;
      opts.n_threads = threads;
      la::CMatrix c;
      const double t = time_best_of(reps + 1, [&] {
        c = la::matmul(a, b, la::Op::kNone, la::Op::kNone, opts);
      });
      return std::make_pair(t, std::move(c));
    };
    auto [t1, c1] = blocked_at(1);
    auto [t2, c2] = blocked_at(2);
    auto [t4, c4] = blocked_at(4);

    // Self-validate: blocked agrees with naive, thread counts bit-identical.
    double max_diff = 0;
    for (std::size_t i = 0; i < c1.size(); ++i)
      max_diff =
          std::max(max_diff, std::abs(c1.data()[i] - c_naive.data()[i]));
    if (max_diff > 1e-10 * double(n)) {
      std::printf("FAIL: blocked/naive divergence %.3e at n=%zu\n", max_diff,
                  n);
      ok = false;
    }
    if (std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(cplx)) != 0 ||
        std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(cplx)) != 0) {
      std::printf("FAIL: thread counts not bit-identical at n=%zu\n", n);
      ok = false;
    }

    bench::row({std::to_string(n), bench::fmte(t_naive), bench::fmte(t1),
                bench::fmt(t_naive / t1, 2) + "x", bench::fmte(t2),
                bench::fmte(t4)});
    report.set("gemm_" + std::to_string(n) + "_naive_s", t_naive);
    report.set("gemm_" + std::to_string(n) + "_blocked_1t_s", t1);
    report.set("gemm_" + std::to_string(n) + "_blocked_2t_s", t2);
    report.set("gemm_" + std::to_string(n) + "_blocked_4t_s", t4);
    report.set("gemm_" + std::to_string(n) + "_gflops_1t",
               8.0 * double(n) * double(n) * double(n) / t1 / 1e9);
    if (n == floor_n) {
      speedup_at_floor = t_naive / t1;
      scaling_1_to_4 = t1 / t4;
    }
  }
  report.set("speedup_vs_naive_" + std::to_string(floor_n), speedup_at_floor);
  report.set("scaling_1_to_4_threads_" + std::to_string(floor_n),
             scaling_1_to_4);
  run_single_tile_shapes(report);

  // Perf floor assertions (the ISSUE acceptance bar).
  std::printf(
      "\n%zu^3 complex: blocked vs naive %.2fx (floor %.1fx), "
      "1->4 thread scaling %.2fx\n",
      floor_n, speedup_at_floor, speedup_floor, scaling_1_to_4);
  if (speedup_at_floor < speedup_floor) {
    std::printf("FAIL: single-thread speedup below the %.1fx floor\n",
                speedup_floor);
    ok = false;
  }
  // Scaling at <= 256 is too noise-prone for a CI gate: quick mode records
  // it and lets bench_diff's ratio tolerance judge the trend instead.
  if (!quick && cores >= 4) {
    if (scaling_1_to_4 < 2.5) {
      std::printf("FAIL: 1->4 thread scaling below the 2.5x floor\n");
      ok = false;
    }
  } else if (!quick) {
    std::printf(
        "note: host has %u hardware thread(s); the 2.5x scaling floor is "
        "only asserted on >= 4 cores\n",
        cores);
  }
  report.set("perf_floor_ok", ok ? 1.0 : 0.0);
  report.write();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  q2::bench::init(argc, argv);
  // A `--json=BENCH_<name>.json` flag switches to the asserting GEMM sweep,
  // which records a perf-trajectory point via BenchReport; `--quick` trims
  // it to the ctest-perf-label shape.
  bool quick = false;
  std::string json_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg.rfind("--json=", 0) == 0)
      json_name = q2::bench::json_flag_name(arg.substr(7), "gemm");
  }
  if (!json_name.empty()) return run_gemm_sweep(json_name, quick);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
