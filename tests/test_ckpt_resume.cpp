// Crash–resume equivalence: a run killed mid-flight by an injected fault and
// restarted from its snapshot family must reproduce the uninterrupted run
// bit for bit — final energy, parameters, iteration history, µ bracket, the
// lot. Covers the VQE's L-BFGS loop and the DMET chemical-potential fit with
// its warm starts, fallback past a corrupted or truncated newest snapshot,
// resume-after-completion, and the snapshots a resume must refuse: an older
// layout, trailing bytes in a section, a different ansatz, and the other
// solver's snapshot family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <random>
#include <sstream>
#include <tuple>

#include "chem/mo.hpp"
#include "chem/scf.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/serialize.hpp"
#include "dmet/dmet_driver.hpp"
#include "vqe/vqe_driver.hpp"

namespace q2 {
namespace {

namespace fs = std::filesystem;

std::string scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("q2_resume_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return (dir / "run.ckpt").string();
}

void expect_bits(double a, double b) {
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double)));
}

void expect_bits(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty())
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

void expect_same(const vqe::VqeResult& a, const vqe::VqeResult& b) {
  expect_bits(a.energy, b.energy);
  expect_bits(a.parameters, b.parameters);
  expect_bits(a.history, b.history);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

chem::MoIntegrals mo_for(const chem::Molecule& mol) {
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  return chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
}

const chem::MoIntegrals& h4_mo() {
  static const chem::MoIntegrals mo =
      mo_for(chem::Molecule::hydrogen_chain(4, 1.8));
  return mo;
}

// H4 at max_bond 16 is exact, so L-BFGS takes adjoint gradients and an
// iteration stays cheap.
vqe::VqeOptions vqe_opts(int max_iterations) {
  vqe::VqeOptions o;
  o.optimizer.max_iterations = max_iterations;
  o.mps.max_bond = 16;
  return o;
}

// Runs once with a crash injected at `crash_at`, verifies the crash actually
// fired, then restarts from the snapshot family and returns the resumed
// result.
vqe::VqeResult crash_then_resume(const chem::MoIntegrals& mo,
                                 vqe::VqeOptions options,
                                 const std::string& path, int crash_at,
                                 ckpt::FaultPlan::Corruption corruption =
                                     ckpt::FaultPlan::Corruption::kNone) {
  options.checkpoint.path = path;
  options.checkpoint.resume = false;  // first leg starts fresh
  options.checkpoint.fault.crash_at_iteration = crash_at;
  if (corruption != ckpt::FaultPlan::Corruption::kNone) {
    // Corrupt the snapshot written at the crash iteration itself: a torn
    // write followed by the node dying. Resume must fall back one snapshot
    // and recompute the lost iteration.
    options.checkpoint.fault.corrupt_at_iteration = crash_at;
    options.checkpoint.fault.corruption = corruption;
  }
  bool crashed = false;
  try {
    vqe::run_vqe(mo, 2, 2, options);
  } catch (const ckpt::InjectedCrash& crash) {
    crashed = true;
    EXPECT_EQ(crash_at, crash.iteration());
  }
  EXPECT_TRUE(crashed) << "fault plan never fired";

  options.checkpoint.fault = {};
  options.checkpoint.resume = true;
  return vqe::run_vqe(mo, 2, 2, options);
}

// The golden is shared across several tests; compute it once.
constexpr int kVqeIterations = 5;
const vqe::VqeResult& golden_lbfgs() {
  static const vqe::VqeResult r =
      vqe::run_vqe(h4_mo(), 2, 2, vqe_opts(kVqeIterations));
  return r;
}

// Resuming `options`' snapshot family must throw a q2::Error whose message
// contains `expected`.
void expect_resume_refused(vqe::VqeOptions options,
                           const std::string& expected) {
  options.checkpoint.resume = true;
  try {
    vqe::run_vqe(h4_mo(), 2, 2, options);
    FAIL() << "the snapshot was resumed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(expected), std::string::npos) << what;
  }
}

TEST(VqeResume, LbfgsCrashResumeBitIdentical) {
  const vqe::VqeResult resumed = crash_then_resume(
      h4_mo(), vqe_opts(kVqeIterations), scratch("lbfgs"), /*crash_at=*/2);
  expect_same(golden_lbfgs(), resumed);
}

TEST(VqeResume, CheckpointingItselfDoesNotPerturbTheRun) {
  vqe::VqeOptions options = vqe_opts(kVqeIterations);
  options.checkpoint.path = scratch("undisturbed");
  options.checkpoint.resume = false;
  const vqe::VqeResult r = vqe::run_vqe(h4_mo(), 2, 2, options);
  expect_same(golden_lbfgs(), r);
}

TEST(VqeResume, FallsBackPastCorruptedNewestSnapshot) {
  const vqe::VqeResult resumed = crash_then_resume(
      h4_mo(), vqe_opts(kVqeIterations), scratch("corrupt"),
      /*crash_at=*/3, ckpt::FaultPlan::Corruption::kFlipByte);
  expect_same(golden_lbfgs(), resumed);
}

TEST(VqeResume, TruncatedNewestSnapshotAlsoFallsBack) {
  const vqe::VqeResult resumed = crash_then_resume(
      h4_mo(), vqe_opts(kVqeIterations), scratch("truncated"),
      /*crash_at=*/3, ckpt::FaultPlan::Corruption::kTruncate);
  expect_same(golden_lbfgs(), resumed);
}

TEST(VqeResume, ResumeAfterCompletionReturnsIdenticalResult) {
  vqe::VqeOptions options = vqe_opts(kVqeIterations);
  options.checkpoint.path = scratch("completed");
  options.checkpoint.resume = false;
  const vqe::VqeResult first = vqe::run_vqe(h4_mo(), 2, 2, options);
  expect_same(golden_lbfgs(), first);

  // The terminal snapshot carries finished = true: the resumed run loads it,
  // skips the optimizer loop entirely and reports the same result.
  options.checkpoint.resume = true;
  const vqe::VqeResult again = vqe::run_vqe(h4_mo(), 2, 2, options);
  expect_same(first, again);
}

TEST(VqeResume, OldLayoutSnapshotIsRejectedNamingBothVersions) {
  // Layout 1, byte for byte: "meta" held the kind, the optimizer (0 L-BFGS,
  // 1 Adam, 2 SPSA) and the parameter count; "optimizer" (tag 0x16) held
  // e_prev after the energy and Adam's two moment vectors after the history;
  // an SPSA run added its mt19937_64 stream as "rng" (tag 0x14).
  const std::size_t n =
      vqe::build_uccsd(h4_mo().n_orbitals(), 2, 2).n_parameters;
  for (int kind : {0, 1, 2}) {
    SCOPED_TRACE("optimizer kind " + std::to_string(kind));
    vqe::VqeOptions options = vqe_opts(kVqeIterations);
    options.checkpoint.path =
        scratch("vqe_old_layout_" + std::to_string(kind));
    options.checkpoint.resume = false;
    ckpt::Snapshot snap;
    ckpt::ByteWriter meta;
    meta.str("vqe");
    meta.i32(kind);
    meta.u64(n);
    snap.set("meta", meta.take());
    const std::vector<double> x(n, 0.01), g(n, 1e-3);
    ckpt::ByteWriter opt;
    opt.u8(0x16);
    opt.b(true);    // initialized
    opt.b(false);   // finished
    opt.b(false);   // converged
    opt.i32(2);     // iteration
    opt.f64(-2.0);  // energy
    opt.f64(-1.9);  // e_prev
    opt.vec(x);     // parameters
    opt.vec(kind == 0 ? g : std::vector<double>{});  // gradient (L-BFGS)
    opt.vec(std::vector<double>{-1.8, -1.9, -2.0});  // history
    opt.vec(kind == 1 ? g : std::vector<double>{});  // Adam's m
    opt.vec(kind == 1 ? g : std::vector<double>{});  // Adam's v
    // L-BFGS's curvature pairs: s, y and rho.
    const std::vector<std::vector<double>> pairs(kind == 0 ? 2 : 0, g);
    opt.vec(pairs);
    opt.vec(pairs);
    opt.vec(std::vector<double>(pairs.size(), 1.0));
    snap.set("optimizer", opt.take());
    if (kind == 2) {
      std::ostringstream stream;
      stream << std::mt19937_64(7);
      ckpt::ByteWriter rng;
      rng.u8(0x14);
      rng.str(stream.str());
      snap.set("rng", rng.take());
    }
    ckpt::CheckpointManager(options.checkpoint).save(2, snap);
    expect_resume_refused(options, "version 1 found, version 2 expected");
  }
}

TEST(VqeResume, TrailingBytesInTheOptimizerSectionAreRejected) {
  vqe::VqeOptions options = vqe_opts(1);
  options.checkpoint.path = scratch("vqe_trailing");
  options.checkpoint.resume = false;
  vqe::run_vqe(h4_mo(), 2, 2, options);

  options.checkpoint.resume = true;
  const auto latest =
      ckpt::CheckpointManager(options.checkpoint).load_latest_valid();
  ASSERT_TRUE(latest.has_value());
  ckpt::Snapshot padded = *latest;
  std::vector<std::uint8_t> opt = padded.at("optimizer");
  opt.push_back(0);
  padded.set("optimizer", opt);
  ckpt::CheckpointManager(options.checkpoint).save(99, padded);
  expect_resume_refused(options, "optimizer section has trailing bytes");
}

TEST(VqeResume, AnsatzWithADifferentParameterCountIsRejected) {
  vqe::VqeOptions options = vqe_opts(1);
  options.checkpoint.path = scratch("vqe_ansatz");
  options.checkpoint.resume = false;
  vqe::run_vqe(h4_mo(), 2, 2, options);

  // The distance window drops H4's long-range doubles.
  options.ansatz.distance_window = 1;
  ASSERT_NE(vqe::build_uccsd(h4_mo().n_orbitals(), 2, 2).n_parameters,
            vqe::build_uccsd(h4_mo().n_orbitals(), 2, 2, options.ansatz)
                .n_parameters);
  expect_resume_refused(options, "ansatz parameter count mismatch");
}

TEST(VqeResume, DmetSnapshotFamilyAtTheVqePathIsRejected) {
  dmet::DmetOptions dmet_options;
  dmet_options.fragments = {{0}, {1}};
  dmet_options.checkpoint.path = scratch("vqe_at_dmet_path");
  dmet_options.checkpoint.resume = false;
  dmet::run_dmet(chem::Molecule::h2(1.4), dmet_options,
                 dmet::make_fci_solver());

  vqe::VqeOptions options = vqe_opts(kVqeIterations);
  options.checkpoint.path = dmet_options.checkpoint.path;
  expect_resume_refused(options, "not written by a VQE run");
}

// ---- DMET µ-loop ----------------------------------------------------------

void expect_same(const dmet::DmetResult& a, const dmet::DmetResult& b) {
  expect_bits(a.energy, b.energy);
  expect_bits(a.hf_energy, b.hf_energy);
  expect_bits(a.mu, b.mu);
  expect_bits(a.total_electrons, b.total_electrons);
  expect_bits(a.fragment_energies, b.fragment_energies);
  expect_bits(a.fragment_electrons, b.fragment_electrons);
  EXPECT_EQ(a.mu_iterations, b.mu_iterations);
  EXPECT_EQ(a.converged, b.converged);
}

// A stretched H6 ring: the correlated electron count at µ = 0 misses the
// target, so the fit genuinely brackets and takes Illinois steps (6
// µ-evaluations) — enough trajectory to kill and resume mid-fit.
dmet::DmetOptions ring_opts() {
  dmet::DmetOptions opts;
  opts.fragments = dmet::uniform_atom_groups(6, 2);
  return opts;
}

const chem::Molecule& ring_mol() {
  static const chem::Molecule mol = chem::Molecule::hydrogen_ring(6, 2.2);
  return mol;
}

const dmet::DmetResult& golden_dmet() {
  static const dmet::DmetResult r =
      dmet::run_dmet(ring_mol(), ring_opts(), dmet::make_fci_solver());
  return r;
}

// Evaluation 1 is µ = 0 and evaluation 2 closes the bracket, so 3 is the
// first Illinois step.
constexpr int kDmetCrashAt = 3;

TEST(DmetResume, CrashMidFitResumesBitIdentical) {
  ASSERT_LT(kDmetCrashAt, golden_dmet().mu_iterations)
      << "the fit ends before the crash point";
  dmet::DmetOptions options = ring_opts();
  options.checkpoint.path = scratch("dmet");
  options.checkpoint.resume = false;
  options.checkpoint.fault.crash_at_iteration = kDmetCrashAt;
  bool crashed = false;
  try {
    dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver());
  } catch (const ckpt::InjectedCrash& crash) {
    crashed = true;
    EXPECT_EQ(kDmetCrashAt, crash.iteration());
  }
  EXPECT_TRUE(crashed) << "fault plan never fired";

  options.checkpoint.fault = {};
  options.checkpoint.resume = true;
  const dmet::DmetResult resumed =
      dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver());
  expect_same(golden_dmet(), resumed);
}

TEST(DmetResume, CorruptedNewestSnapshotFallsBackAndStillMatches) {
  dmet::DmetOptions options = ring_opts();
  options.checkpoint.path = scratch("dmet_corrupt");
  options.checkpoint.resume = false;
  options.checkpoint.fault.crash_at_iteration = kDmetCrashAt;
  options.checkpoint.fault.corrupt_at_iteration = kDmetCrashAt;
  options.checkpoint.fault.corruption = ckpt::FaultPlan::Corruption::kFlipByte;
  EXPECT_THROW(dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver()),
               ckpt::InjectedCrash);

  options.checkpoint.fault = {};
  options.checkpoint.resume = true;
  const dmet::DmetResult resumed =
      dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver());
  expect_same(golden_dmet(), resumed);
}

// Scripted fragment solver for the warm-start transport. N(µ) per fragment
// is a smooth curve the fit needs several Illinois steps for; the returned
// "optimum" is {µ, h_00}, and the energy depends on the warm start received,
// so a resumed run handed a different warm start returns different bits.
// Every call is recorded; h_00 tells the fragments apart.
class ScriptedWarmStarts {
 public:
  struct Call {
    double h00, mu;
    std::vector<double> start;
    bool operator<(const Call& o) const {
      return std::tie(h00, mu, start) < std::tie(o.h00, o.mu, o.start);
    }
    bool operator==(const Call& o) const {
      return h00 == o.h00 && mu == o.mu && start == o.start;
    }
  };

  dmet::FragmentSolver solver() {
    return [this](const dmet::EmbeddingProblem& prob,
                  const chem::MoIntegrals& solver_mo) {
      const std::size_t f0 = prob.fragment_orbitals.at(0);
      const double h00 = prob.solver.h(f0, f0);
      const double mu = h00 - solver_mo.h(f0, f0);
      const std::vector<double>& start = prob.initial_parameters;
      dmet::FragmentSolution sol;
      sol.electrons = 2.0 + std::tanh(4.0 * (mu - 0.05));
      sol.energy = -1.0 - (start.empty() ? 0.0 : 1e-3 * start[0]);
      sol.parameters = {mu, h00};
      std::lock_guard<std::mutex> lock(mutex_);
      calls_.push_back({h00, mu, start});
      return sol;
    };
  }

  // Calls grouped per sweep (sweeps run one after another), each sorted.
  std::vector<std::vector<Call>> sweeps(std::size_t n_fragments) const {
    std::vector<std::vector<Call>> out;
    for (std::size_t i = 0; i < calls_.size(); ++i) {
      if (i % n_fragments == 0) out.emplace_back();
      out.back().push_back(calls_[i]);
    }
    for (auto& sweep : out) std::sort(sweep.begin(), sweep.end());
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<Call> calls_;
};

TEST(DmetResume, WarmStartParametersSurviveCrash) {
  dmet::DmetOptions options = ring_opts();
  options.parallel.n_threads = 2;
  const std::size_t n_fragments = options.fragments.size();
  ScriptedWarmStarts golden_log;
  const dmet::DmetResult golden =
      dmet::run_dmet(ring_mol(), options, golden_log.solver());
  const auto golden_sweeps = golden_log.sweeps(n_fragments);
  ASSERT_TRUE(golden.converged);
  ASSERT_EQ(std::size_t(golden.mu_iterations), golden_sweeps.size());
  ASSERT_LT(kDmetCrashAt, golden.mu_iterations);

  // Each sweep starts from the optima at the nearest µ evaluated before it
  // (the earlier sweep on a tie); the first sweep starts cold.
  for (std::size_t k = 0; k < golden_sweeps.size(); ++k) {
    const double mu = golden_sweeps[k].front().mu;
    std::size_t nearest = 0;
    for (std::size_t j = 1; j < k; ++j)
      if (std::abs(golden_sweeps[j].front().mu - mu) <
          std::abs(golden_sweeps[nearest].front().mu - mu))
        nearest = j;
    for (std::size_t i = 0; i < n_fragments; ++i) {
      const auto& call = golden_sweeps[k][i];
      const auto& source = golden_sweeps[nearest][i];
      if (k == 0)
        EXPECT_TRUE(call.start.empty());
      else
        EXPECT_EQ(call.start, (std::vector<double>{source.mu, source.h00}))
            << "sweep " << k;
    }
  }

  options.checkpoint.path = scratch("dmet_warm");
  options.checkpoint.resume = false;
  options.checkpoint.fault.crash_at_iteration = kDmetCrashAt;
  ScriptedWarmStarts crashed_log;
  EXPECT_THROW(dmet::run_dmet(ring_mol(), options, crashed_log.solver()),
               ckpt::InjectedCrash);
  EXPECT_EQ(std::size_t(kDmetCrashAt), crashed_log.sweeps(n_fragments).size());

  options.checkpoint.fault = {};
  options.checkpoint.resume = true;
  ScriptedWarmStarts resumed_log;
  const dmet::DmetResult resumed =
      dmet::run_dmet(ring_mol(), options, resumed_log.solver());
  const auto resumed_sweeps = resumed_log.sweeps(n_fragments);
  ASSERT_EQ(resumed_sweeps.size(), golden_sweeps.size() - kDmetCrashAt);
  ASSERT_FALSE(resumed_sweeps.front().front().start.empty())
      << "the snapshot lost the warm starts";
  for (std::size_t k = 0; k < resumed_sweeps.size(); ++k)
    EXPECT_EQ(resumed_sweeps[k], golden_sweeps[k + kDmetCrashAt])
        << "sweep " << k + kDmetCrashAt;
  expect_same(golden, resumed);
}

TEST(DmetResume, OldLayoutSnapshotIsRejectedNamingBothVersions) {
  // A snapshot in the bisection fit's layout: meta without a layout version,
  // then phase 5 (bisect), µ, lo, hi, the iteration/cycle/expansion/bisection
  // counters, the failure flag and three evaluations without parameters.
  dmet::DmetOptions options = ring_opts();
  options.checkpoint.path = scratch("dmet_old_layout");
  options.checkpoint.resume = false;
  ckpt::Snapshot snap;
  ckpt::ByteWriter meta;
  meta.str("dmet");
  meta.u64(3);
  snap.set("meta", meta.take());
  ckpt::ByteWriter w;
  w.i32(5);
  for (double x : {0.25, 0.0, 0.5}) w.f64(x);
  for (int x : {8, 8, 0, 0, 5}) w.i32(x);
  w.b(false);
  for (int k = 0; k < 3; ++k) {
    w.f64(-3.0);
    w.f64(6.0);
    w.vec(std::vector<double>(3, -1.0));
    w.vec(std::vector<double>(3, 2.0));
  }
  snap.set("mu_loop", w.take());
  ckpt::CheckpointManager(options.checkpoint).save(8, snap);

  options.checkpoint.resume = true;
  try {
    dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver());
    FAIL() << "an old-layout snapshot was decoded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1 found"), std::string::npos) << what;
    EXPECT_NE(what.find("version 2 expected"), std::string::npos) << what;
  }
}

TEST(DmetResume, TrailingBytesInTheFitSectionAreRejected) {
  dmet::DmetOptions options = ring_opts();
  options.checkpoint.path = scratch("dmet_trailing");
  options.checkpoint.resume = false;
  dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver());

  options.checkpoint.resume = true;
  const auto latest =
      ckpt::CheckpointManager(options.checkpoint).load_latest_valid();
  ASSERT_TRUE(latest.has_value());
  ckpt::Snapshot padded = *latest;
  std::vector<std::uint8_t> fit = padded.at("mu_loop");
  fit.push_back(0);
  padded.set("mu_loop", fit);
  ckpt::CheckpointManager(options.checkpoint).save(99, padded);
  EXPECT_THROW(dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver()),
               Error);
}

TEST(DmetResume, CheckpointingItselfDoesNotPerturbTheFit) {
  dmet::DmetOptions options = ring_opts();
  options.checkpoint.path = scratch("dmet_undisturbed");
  options.checkpoint.resume = false;
  const dmet::DmetResult r =
      dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver());
  expect_same(golden_dmet(), r);

  // Resume after completion: the terminal snapshot reports the finished fit.
  options.checkpoint.resume = true;
  const dmet::DmetResult again =
      dmet::run_dmet(ring_mol(), options, dmet::make_fci_solver());
  expect_same(r, again);
}

}  // namespace
}  // namespace q2
