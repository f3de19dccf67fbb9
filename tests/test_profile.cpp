// Span-aggregation profile: call-tree construction from nested and threaded
// spans, self-vs-total invariants, exactness and thread-count invariance of
// the GEMM/SVD FLOP accounting, cross-thread path adoption through the pool,
// the set-up spans (the integral fan-out among them) and the
// adjoint-gradient spans, one state-preparation span per
// preparation of an L-BFGS run, and the JSON export round-tripped
// through the shared obs::Json parser.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/mps.hpp"
#include "circuit/builder.hpp"
#include "vqe/energy.hpp"
#include "vqe/uccsd.hpp"
#include "vqe/vqe_driver.hpp"

namespace q2 {
namespace {

// Profiling shares the OBS_SPAN hook with tracing, so compiling spans out
// removes the profile's data source too.
#ifdef Q2_OBS_DISABLE_TRACING
constexpr bool kSpansCompiledOut = true;
#else
constexpr bool kSpansCompiledOut = false;
#endif

class ProfileTest : public testing::Test {
 protected:
  void SetUp() override {
    if (kSpansCompiledOut)
      GTEST_SKIP() << "spans compiled out (Q2_OBS_DISABLE_TRACING)";
    obs::set_profiling(true);
    obs::clear_profile();
  }
  void TearDown() override {
    obs::set_profiling(false);
    obs::clear_profile();
  }
};

const obs::ProfileNode* find_node(const std::vector<obs::ProfileNode>& nodes,
                                  const std::string& name) {
  for (const auto& n : nodes)
    if (n.name == name) return &n;
  return nullptr;
}

la::CMatrix random_matrix(std::size_t m, std::size_t n, unsigned seed) {
  Rng rng(seed);
  la::CMatrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.complex_normal();
  return a;
}

TEST_F(ProfileTest, NestedSpansBuildACallTree) {
  {
    OBS_SPAN("test/outer");
    { OBS_SPAN("test/inner"); }
    { OBS_SPAN("test/inner"); }
  }
  {
    OBS_SPAN("test/outer");
  }
  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  const obs::ProfileNode* outer = find_node(nodes, "test/outer");
  const obs::ProfileNode* inner = find_node(nodes, "test/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 2u);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->path, "test/outer");
  EXPECT_EQ(inner->path, "test/outer;test/inner");
  // Pre-order: the parent precedes its children in the snapshot.
  EXPECT_LT(outer - nodes.data(), inner - nodes.data());
  // Single-thread nesting: the children fit inside the parent, so self time
  // is non-negative and bounded by total.
  EXPECT_GE(outer->total_us, inner->total_us);
  EXPECT_GE(outer->self_us, 0.0);
  EXPECT_LE(outer->self_us, outer->total_us);
  EXPECT_GE(inner->min_us, 0.0);
  EXPECT_GE(inner->max_us, inner->min_us);
}

TEST_F(ProfileTest, ThreadTagsAppearInTheByThreadBreakdown) {
  {
    OBS_SPAN("test/tagged");
  }
  std::thread t([] {
    obs::set_thread_tag("sidecar");
    OBS_SPAN("test/tagged");
  });
  t.join();
  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  const obs::ProfileNode* tagged = find_node(nodes, "test/tagged");
  ASSERT_NE(tagged, nullptr);
  EXPECT_EQ(tagged->count, 2u);
  ASSERT_EQ(tagged->by_thread.size(), 2u);
  bool has_sidecar = false;
  for (const auto& [tag, us] : tagged->by_thread) {
    if (tag == "sidecar") has_sidecar = true;
    EXPECT_GE(us, 0.0);
  }
  EXPECT_TRUE(has_sidecar);
}

TEST_F(ProfileTest, GemmFlopCountIsExactAndThreadCountInvariant) {
  // 32x17 * 17x9 complex: 8*m*k*n flops, (mk + kn + 2mn) * 16 bytes — the
  // analytic model from obs/workload.hpp, charged before the dispatch.
  const std::size_t m = 32, k = 17, n = 9;
  const la::CMatrix a = random_matrix(m, k, 1), b = random_matrix(k, n, 2);
  const std::uint64_t want_flops = 8ull * m * k * n;
  const std::uint64_t want_bytes = (m * k + k * n + 2 * m * n) * 16ull;

  std::vector<std::uint64_t> flops_by_threads, bytes_by_threads;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    obs::clear_profile();
    par::ParallelOptions opts;
    opts.n_threads = threads;
    (void)la::matmul(a, b, la::Op::kNone, la::Op::kNone, opts);
    const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
    const obs::ProfileNode* gemm = find_node(nodes, "la/gemm");
    ASSERT_NE(gemm, nullptr) << "threads=" << threads;
    EXPECT_EQ(gemm->count, 1u);
    flops_by_threads.push_back(gemm->self_flops);
    bytes_by_threads.push_back(gemm->self_bytes);
  }
  for (std::size_t i = 0; i < flops_by_threads.size(); ++i) {
    EXPECT_EQ(flops_by_threads[i], want_flops) << "i=" << i;
    EXPECT_EQ(bytes_by_threads[i], want_bytes) << "i=" << i;
  }
}

TEST_F(ProfileTest, SvdWorkAccountingIsThreadCountInvariant) {
  // The same decomposition run concurrently from pool threads, one workspace
  // per call: the analytic charge depends only on the operand, so the
  // la/svd node's totals are identical at every thread count.
  const std::size_t n = 64;
  constexpr std::size_t kCalls = 4;
  const la::CMatrix a = random_matrix(n, n, 7);
  std::vector<std::uint64_t> flops_by_threads, bytes_by_threads;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    obs::clear_profile();
    par::ParallelOptions opts;
    opts.n_threads = threads;
    par::parallel_for(opts, 0, kCalls, [&](std::size_t) {
      la::SvdWorkspace ws;
      (void)la::svd_truncated_ws(ws, a.data(), n, n, n, nullptr,
                                 /*max_bond=*/16, 0.0, /*want_u=*/true);
    });
    const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
    const obs::ProfileNode* svd = find_node(nodes, "la/svd");
    ASSERT_NE(svd, nullptr) << "threads=" << threads;
    EXPECT_EQ(svd->count, kCalls);
    EXPECT_GT(svd->flops, 0u);
    EXPECT_GT(svd->bytes, 0u);
    flops_by_threads.push_back(svd->flops);
    bytes_by_threads.push_back(svd->bytes);
  }
  EXPECT_EQ(flops_by_threads[0], flops_by_threads[1]);
  EXPECT_EQ(flops_by_threads[0], flops_by_threads[2]);
  EXPECT_EQ(bytes_by_threads[0], bytes_by_threads[1]);
  EXPECT_EQ(bytes_by_threads[0], bytes_by_threads[2]);
}

TEST_F(ProfileTest, MpsTwoSiteNodeAccumulatesSubtreeWork) {
  Rng rng(11);
  sim::MpsOptions opts;
  opts.max_bond = 8;
  sim::Mps mps(8, opts);
  mps.run(circ::brickwork_circuit(8, 2, rng));
  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  const obs::ProfileNode* two_site = find_node(nodes, "mps/two_site");
  ASSERT_NE(two_site, nullptr);
  EXPECT_GT(two_site->count, 0u);
  // flops/bytes are cumulative over the subtree: the two-site update charges
  // the O-application itself and inherits its contraction/SVD children, so a
  // roofline line at the phase level is meaningful.
  EXPECT_GT(two_site->flops, two_site->self_flops);
  EXPECT_GT(two_site->bytes, 0u);
  ASSERT_NE(find_node(nodes, "mps/contract"), nullptr);
  ASSERT_NE(find_node(nodes, "mps/svd"), nullptr);
}

TEST_F(ProfileTest, PoolWorkersAdoptTheDispatchingSpanPath) {
  par::ParallelOptions opts;
  opts.n_threads = 4;
  {
    OBS_SPAN("test/fanout");
    par::parallel_for(opts, 0, 8, [](std::size_t) {
      OBS_SPAN("test/unit");
    });
  }
  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  const obs::ProfileNode* unit = find_node(nodes, "test/unit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->count, 8u);
  // Worker-recorded spans merge under the dispatching span's path, not under
  // per-worker roots: node identity is independent of which thread ran what.
  EXPECT_EQ(unit->path.rfind("test/fanout;", 0), 0u) << unit->path;
}

// A fan-out records its units on up to four threads while the parent span
// runs once, so the units' summed time exceeds the parent's wall time. Self
// time comes from each thread's own tree, so the adopted units never
// subtract from the parent: every node keeps 0 <= self <= total (the
// parent read about -3x its total when self was total minus all children).
TEST_F(ProfileTest, SelfTimeIsNonNegativeUnderPoolFanOut) {
  par::ParallelOptions opts;
  opts.n_threads = 4;
  {
    OBS_SPAN("test/fanout_parent");
    par::parallel_for(opts, 0, 4, [](std::size_t) {
      OBS_SPAN("test/fanout_unit");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
  }
  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  const obs::ProfileNode* parent = find_node(nodes, "test/fanout_parent");
  const obs::ProfileNode* unit = find_node(nodes, "test/fanout_unit");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->count, 4u);
  for (const obs::ProfileNode& n : nodes) {
    EXPECT_GE(n.self_us, 0.0) << n.path;
    EXPECT_LE(n.self_us, n.total_us) << n.path;
  }
  // The units sleep, so nearly all of their time is their own.
  EXPECT_GE(unit->self_us, 0.9 * unit->total_us);
}

// Set-up is visible from the library's own spans: the integrals, the
// streamed Jordan-Wigner build, and the evaluator's constructor with its
// MPO build nested inside.
TEST_F(ProfileTest, SetupSpansAppearWithSelfWithinTotal) {
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(mo);
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(mo.n_orbitals(), 1, 1);
  const vqe::EnergyEvaluator evaluator(ansatz.circuit, h);

  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  for (const char* name : {"chem/compute_integrals", "chem/jordan_wigner",
                           "vqe/evaluator_init", "pauli/build_mpo"}) {
    const obs::ProfileNode* node = find_node(nodes, name);
    ASSERT_NE(node, nullptr) << name;
    EXPECT_EQ(node->count, 1u) << name;
    EXPECT_GE(node->self_us, 0.0) << name;
    EXPECT_LE(node->self_us, node->total_us) << name;
  }
  EXPECT_EQ(find_node(nodes, "pauli/build_mpo")->path,
            "vqe/evaluator_init;pauli/build_mpo");
}

// The integral passes fan out on the pool under the caller's span: at 4
// threads chem/compute_integrals is one call on the caller, its workers'
// chunks add no profile node, and no node's self time goes negative.
TEST_F(ProfileTest, IntegralFanOutKeepsSelfWithinTotal) {
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(10, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints =
      chem::compute_integrals(mol, basis, par::ParallelOptions{4});
  ASSERT_EQ(ints.overlap.rows(), 10u);

  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  const obs::ProfileNode* node = find_node(nodes, "chem/compute_integrals");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->path, "chem/compute_integrals");
  EXPECT_EQ(node->count, 1u);
  EXPECT_GE(node->self_us, 0.0);
  EXPECT_LE(node->self_us, node->total_us);
  for (const obs::ProfileNode& n : nodes) {
    EXPECT_GE(n.self_us, 0.0) << n.path;
    EXPECT_LE(n.self_us, n.total_us) << n.path;
  }
}

// The adjoint gradient shows as one span with the lambda build nested
// inside it.
TEST_F(ProfileTest, AdjointGradientSpansAppearWithSelfWithinTotal) {
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(mo.n_orbitals(), 1, 1);
  const vqe::EnergyEvaluator evaluator(ansatz.circuit,
                                       chem::molecular_qubit_hamiltonian(mo));
  obs::clear_profile();
  ASSERT_TRUE(evaluator.adjoint_gradient(vqe::initial_parameters(ansatz, 0.1)));

  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  for (const char* name : {"vqe/adjoint_gradient", "vqe/adjoint_lambda"}) {
    const obs::ProfileNode* node = find_node(nodes, name);
    ASSERT_NE(node, nullptr) << name;
    EXPECT_EQ(node->count, 1u) << name;
    EXPECT_GE(node->self_us, 0.0) << name;
    EXPECT_LE(node->self_us, node->total_us) << name;
  }
  EXPECT_EQ(find_node(nodes, "vqe/adjoint_lambda")->path,
            "vqe/adjoint_gradient;vqe/adjoint_lambda");
}

// A recorded preparation is one mps/run span, and a gradient that restores
// psi from the kept recording opens none: a 3-iteration H4 L-BFGS run (5
// energies, 4 adjoint gradients) opens exactly one mps/run per energy
// evaluation, the state-preparation count perfbench reads.
TEST_F(ProfileTest, LbfgsRunOpensOneMpsRunSpanPerPreparation) {
  const chem::Molecule mol = chem::Molecule::hydrogen_chain(4, 1.8);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  vqe::VqeOptions opts;
  opts.mps.max_bond = 16;
  opts.mps.parallel.n_threads = 1;
  opts.optimizer.max_iterations = 3;
  obs::Counter& evaluations =
      obs::Registry::global().counter("vqe.energy_evaluations");
  obs::Counter& adjoints =
      obs::Registry::global().counter("vqe.adjoint_gradients");
  const std::uint64_t evaluations_before = evaluations.value(),
                      adjoints_before = adjoints.value();
  obs::clear_profile();
  vqe::run_vqe_on(chem::molecular_qubit_hamiltonian(mo),
                  vqe::build_uccsd(mo.n_orbitals(), 2, 2), opts);

  std::uint64_t runs = 0, in_gradient = 0;
  for (const obs::ProfileNode& n : obs::profile_snapshot())
    if (n.name == "mps/run") {
      runs += n.count;
      if (n.path.find("vqe/adjoint_gradient") != std::string::npos)
        in_gradient += n.count;
    }
  EXPECT_EQ(evaluations.value() - evaluations_before, 5u);
  EXPECT_EQ(adjoints.value() - adjoints_before, 4u);
  EXPECT_EQ(runs, 5u);
  EXPECT_EQ(in_gradient, 0u);
}

TEST_F(ProfileTest, JsonExportRoundTripsThroughTheSharedParser) {
  {
    OBS_SPAN("test/json_outer");
    { OBS_SPAN("test/json_inner"); }
  }
  const la::CMatrix a = random_matrix(16, 16, 3), b = random_matrix(16, 16, 4);
  (void)la::matmul(a, b);

  const std::vector<obs::ProfileNode> snapshot = obs::profile_snapshot();
  const obs::Json root = obs::Json::parse(obs::profile_json());
  const std::vector<obs::Json>& nodes = root.at("profile").array;
  ASSERT_EQ(nodes.size(), snapshot.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i].at("name").string, snapshot[i].name);
    EXPECT_EQ(nodes[i].at("path").string, snapshot[i].path);
    EXPECT_EQ(nodes[i].at("count").number, double(snapshot[i].count));
    EXPECT_EQ(nodes[i].at("flops").number, double(snapshot[i].flops));
    EXPECT_TRUE(nodes[i].has("gflops"));
    EXPECT_TRUE(nodes[i].has("intensity"));
    EXPECT_EQ(nodes[i].at("by_thread").type, obs::Json::kObject);
  }
  const obs::Json* gemm = nullptr;
  for (const obs::Json& n : nodes)
    if (n.at("name").string == "la/gemm") gemm = &n;
  ASSERT_NE(gemm, nullptr);
  EXPECT_GT(gemm->at("flops").number, 0.0);
  EXPECT_GT(gemm->at("intensity").number, 0.0);
  // The parallel-attribution block travels with the tree.
  EXPECT_EQ(root.at("parallel").type, obs::Json::kObject);
  EXPECT_TRUE(root.has("dropped_spans"));
  // And the text table mentions every exported span.
  const std::string table = obs::profile_text();
  EXPECT_NE(table.find("la/gemm"), std::string::npos);
  EXPECT_NE(table.find("test/json_inner"), std::string::npos);
}

}  // namespace
}  // namespace q2
