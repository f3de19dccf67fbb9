// §IV-B text numbers: (1) the MPS-VQE hotspot split — the paper reports
// ~15 % of time in tensor contraction and ~82 % in SVD; (2) the tuned GEMM
// vs naive-kernel comparison (the swBLAS vs reference-LAPACK analogue);
// (3) fused vs unfused tensor contraction (the "fused permutation and
// multiplication" ablation).
#include "bench_util.hpp"
#include "circuit/builder.hpp"
#include "circuit/routing.hpp"
#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/tensor.hpp"
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

  bench::header("IV-B: fused vs unfused tensor contraction");
  bench::row({"D", "fused (s)", "reference (s)", "speedup"});
  for (std::size_t d : {16u, 32u, 64u}) {
    la::Tensor a({2 * d, 2, d});
    la::Tensor b({d, 2, 2 * d});
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.complex_normal();
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.complex_normal();
    constexpr int kReps = 30;
    (void)la::contract(a, {2}, b, {0});  // warm-up
    Timer t1;
    for (int r = 0; r < kReps; ++r)
      (void)la::contract(a, {2}, b, {0});
    const double fast = t1.seconds() / kReps;
    Timer t2;
    for (int r = 0; r < kReps; ++r)
      (void)la::contract_reference(a, {2}, b, {0});
    const double slow = t2.seconds() / kReps;
    bench::row({std::to_string(d), bench::fmte(fast), bench::fmte(slow),
                bench::fmt(slow / fast, 2) + "x"});
  }
  return 0;
}
