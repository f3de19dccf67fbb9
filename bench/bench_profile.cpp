// §IV-B text numbers: (1) the MPS-VQE hotspot split — the paper reports
// ~15 % of time in tensor contraction and ~82 % in SVD; (2) the tuned GEMM
// vs naive-kernel comparison (the swBLAS vs reference-LAPACK analogue);
// (3) fused vs unfused permutation and multiplication on the MPS transfer's
// site-tensor slices (the "fused permutation and multiplication" ablation).
#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builder.hpp"
#include "circuit/routing.hpp"
#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "sim/mps.hpp"
#include "vqe/uccsd.hpp"

int main(int argc, char** argv) {
  using namespace q2;
  bench::init(argc, argv);
  bench::BenchReport report("profile");
  Rng rng(3);

  // The hotspot split now comes from the span-aggregation profile (the same
  // tree `--profile=` exports) instead of the ad-hoc MpsProfile stopwatches.
  obs::set_profiling(true);

  bench::header("IV-B: MPS hotspot split (contraction vs SVD)");
  bench::row({"qubits", "D", "contraction %", "SVD %", "other %"});
  for (int atoms : {16, 32, 64}) {
    vqe::UccsdOptions opts;
    opts.distance_window = 2;
    const vqe::UccsdAnsatz ansatz =
        vqe::build_uccsd(std::size_t(atoms), atoms / 2, atoms / 2, opts);
    // Large angles so the state actually entangles up to the bond cap, as a
    // mid-optimization VQE state would.
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.5);
    const circ::Circuit routed =
        circ::route_to_nearest_neighbour(ansatz.circuit);
    sim::MpsOptions mo;
    mo.max_bond = 32;
    // One thread keeps the span totals disjoint slices of the wall clock, so
    // share-of-total is well defined.
    mo.parallel.n_threads = 1;
    obs::clear_profile();
    Timer t;
    sim::Mps mps(routed.n_qubits(), mo);
    mps.run(routed, params);
    const double total = t.seconds();
    const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
    const double contraction_s = bench::span_seconds(nodes, "mps/contract");
    const double svd_s = bench::span_seconds(nodes, "mps/svd");
    bench::row({std::to_string(routed.n_qubits()),
                std::to_string(mps.max_bond_dimension()),
                bench::fmt(100 * contraction_s / total, 1),
                bench::fmt(100 * svd_s / total, 1),
                bench::fmt(100 * (total - contraction_s - svd_s) / total, 1)});
    if (atoms == 64) {
      report.set("hotspot_qubits", routed.n_qubits());
      report.set("contraction_share", contraction_s / total);
      report.set("svd_share", svd_s / total);
    }
  }
  std::printf(
      "Paper: ~15%% contraction / ~82%% SVD for 33..129 qubits. The SVD share"
      " grows with\nsystem size and with D (the paper runs D >= 256, where"
      " the SVD's larger constant\ndominates completely).\n");

  bench::header("IV-B: blocked GEMM vs naive kernel (swBLAS analogue)");
  bench::row({"size", "blocked (s)", "naive (s)", "speedup"});
  for (std::size_t n : {64u, 128u, 256u, 512u}) {
    la::CMatrix a(n, n), b(n, n);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = rng.complex_normal();
      b.data()[i] = rng.complex_normal();
    }
    Timer t1;
    const la::CMatrix c1 = la::matmul(a, b);
    const double fast = t1.seconds();
    Timer t2;
    la::CMatrix c2;
    la::gemm_naive(a, b, c2);
    const double slow = t2.seconds();
    bench::row({std::to_string(n), bench::fmte(fast), bench::fmte(slow),
                bench::fmt(slow / fast, 2) + "x"});
    if (n == 256u) report.set("gemm_speedup_256", slow / fast);
    if (n == 512u) report.set("gemm_speedup_512", slow / fast);
    (void)c1;
  }

  // The MPS transfer's E * B_i, where B_i = t[:, i, :] is a D x D slice of a
  // (D, 2, D) site tensor. Fused: gemm_raw packs B_i straight out of t (base
  // t + i*D, row stride 2*D), as Mps::transfer does. Unfused: B_i is first
  // permuted into a contiguous matrix, then the same gemm_raw runs on the
  // copy. Both pack the same elements in the same order, so the products
  // must agree bit for bit.
  bench::header("IV-B: fused vs unfused permutation + GEMM (transfer E*B_i)");
  bench::row({"D", "fused (s)", "unfused (s)", "speedup"});
  for (std::size_t d : {16u, 32u, 64u}) {
    std::vector<cplx> t(2 * d * d), e(d * d), bi(d * d);
    std::vector<cplx> fused(2 * d * d), unfused(2 * d * d);
    for (cplx& z : t) z = rng.complex_normal();
    for (cplx& z : e) z = rng.complex_normal();
    const auto run_fused = [&] {
      for (std::size_t i = 0; i < 2; ++i)
        la::gemm_raw(d, d, d, e.data(), d, la::Op::kNone, t.data() + i * d,
                     2 * d, la::Op::kNone, fused.data() + i * d * d, d);
    };
    const auto run_unfused = [&] {
      for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t a = 0; a < d; ++a)
          std::copy_n(t.data() + a * 2 * d + i * d, d, bi.data() + a * d);
        la::gemm_raw(d, d, d, e.data(), d, la::Op::kNone, bi.data(), d,
                     la::Op::kNone, unfused.data() + i * d * d, d);
      }
    };
    run_fused();  // warm-up: grows this thread's packing buffers
    run_unfused();
    if (std::memcmp(fused.data(), unfused.data(),
                    fused.size() * sizeof(cplx)) != 0) {
      std::fprintf(stderr, "fused and unfused products differ at D=%zu\n", d);
      return 1;
    }
    // Best of five alternating windows per side, so a slow spell on a
    // shared host lands on both sides or on neither.
    const int reps = int(std::max<std::size_t>(100, (1u << 24) / (d * d * d)));
    double fast = 1e300, slow = 1e300;
    for (int trial = 0; trial < 5; ++trial) {
      Timer t1;
      for (int r = 0; r < reps; ++r) run_fused();
      fast = std::min(fast, t1.seconds() / reps);
      Timer t2;
      for (int r = 0; r < reps; ++r) run_unfused();
      slow = std::min(slow, t2.seconds() / reps);
    }
    bench::row({std::to_string(d), bench::fmte(fast), bench::fmte(slow),
                bench::fmt(slow / fast, 2) + "x"});
  }
  return 0;
}
