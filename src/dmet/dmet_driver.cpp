#include "dmet/dmet_driver.hpp"

#include <cmath>
#include <memory>
#include <string>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "ckpt/serialize.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/mps.hpp"

namespace q2::dmet {
namespace {

obs::Counter& fragment_solve_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("dmet.fragment_solves");
  return c;
}

}  // namespace

FragmentSolver make_fci_solver() {
  return [](const EmbeddingProblem& prob, const chem::MoIntegrals& solver_mo) {
    const chem::FciResult gs =
        chem::fci_ground_state(solver_mo, prob.n_alpha, prob.n_beta);
    require(gs.converged, "dmet/fci: fragment solve did not converge");
    const chem::FciSpace space(solver_mo.n_orbitals(), prob.n_alpha,
                               prob.n_beta);

    const chem::MoIntegrals ex =
        fragment_weighted_integrals(prob.energy, prob.fragment_orbitals);
    FragmentSolution sol;
    sol.energy = chem::fci_expectation(space, chem::to_spin_orbitals(ex), gs.ci);
    const la::RMatrix rdm = space.one_rdm(gs.ci);
    for (std::size_t f : prob.fragment_orbitals) sol.electrons += rdm(f, f);
    return sol;
  };
}

FragmentSolver make_vqe_solver(const vqe::VqeOptions& options) {
  return [options](const EmbeddingProblem& prob,
                   const chem::MoIntegrals& solver_mo) {
    // The embedding basis (fragment + bath) is not energy ordered, so the
    // UCCSD reference (occupy the first qubits) would be the wrong
    // determinant. Canonicalize with a small in-embedding mean field and
    // rotate every measured operator into the same basis.
    const la::RMatrix u =
        embedding_canonical_orbitals(solver_mo, prob.n_alpha);
    const chem::MoIntegrals canonical = rotate_orbitals(solver_mo, u);

    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(canonical);
    const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(
        canonical.n_orbitals(), prob.n_alpha, prob.n_beta, options.ansatz);
    vqe::VqeOptions solve_options = options;
    solve_options.initial_parameters = prob.initial_parameters;
    const vqe::EnergyEvaluator evaluator(ansatz.circuit, h, options.mps,
                                         options.measurement);
    const vqe::VqeResult r = vqe::run_vqe_on(evaluator, ansatz, solve_options);

    // Fragment energy and electron count are measured on the optimized state
    // as plain Pauli expectations — exactly what hardware would report. The
    // optimum is the last point L-BFGS evaluated, so state_at hands back the
    // state the evaluator kept there: the fragment is measured on the state
    // it was optimized on, with no further preparation.
    const sim::Mps state = evaluator.state_at(r.parameters);
    const pauli::QubitOperator hx = chem::molecular_qubit_hamiltonian(
        rotate_orbitals(
            fragment_weighted_integrals(prob.energy, prob.fragment_orbitals),
            u));
    // Fragment projector in the canonical basis: P = U^T diag(1_frag) U.
    const std::size_t m = canonical.n_orbitals();
    la::RMatrix proj(m, m);
    for (std::size_t f : prob.fragment_orbitals)
      for (std::size_t p = 0; p < m; ++p)
        for (std::size_t q = 0; q < m; ++q)
          proj(p, q) += u(f, p) * u(f, q);
    const pauli::QubitOperator nx = chem::one_body_qubit_operator(proj);

    FragmentSolution sol;
    sol.energy = state.expectation(hx).real();
    sol.electrons = state.expectation(nx).real();
    sol.parameters = r.parameters;
    return sol;
  };
}

namespace {

// One µ-evaluation: a full sweep of fragment solves at chemical potential mu.
struct Evaluation {
  int sweep = -1;  ///< µ-evaluation index; -1 = not evaluated
  double mu = 0.0;
  double energy = 0.0;     ///< sum of fragment energies (electronic)
  double electrons = 0.0;  ///< summed fragment electron count
  std::vector<double> fragment_energies, fragment_electrons;
  /// Each fragment solver's optimum (empty for solvers without parameters):
  /// the warm starts of later sweeps.
  std::vector<std::vector<double>> fragment_parameters;
};

// Everything that's independent of mu, precomputed once.
struct Prepared {
  chem::IntegralTables ints;
  LowdinBasis lb;
  la::RMatrix p_oao;
  std::vector<Fragment> fragments;
  std::vector<EmbeddingProblem> problems;
  double hf_energy = 0.0;
};

Prepared prepare(const chem::Molecule& molecule, const DmetOptions& options) {
  Prepared prep;
  const chem::BasisSet basis = chem::BasisSet::build(molecule, options.basis);
  prep.ints = chem::compute_integrals(molecule, basis, options.parallel);
  const chem::ScfResult scf = chem::rhf(molecule, basis, prep.ints);
  require(scf.converged, "run_dmet: RHF did not converge");
  prep.hf_energy = scf.energy;

  prep.lb = make_lowdin(prep.ints.overlap);
  prep.p_oao = oao_density(prep.lb, scf.density);

  const auto groups = options.fragments.empty()
                          ? uniform_atom_groups(molecule.n_atoms(), 1)
                          : options.fragments;
  prep.fragments = make_fragments(basis, molecule.n_atoms(), groups);
  // Each fragment's bath and embedding problem is built into its own slot.
  prep.problems.resize(prep.fragments.size());
  par::parallel_for(
      options.parallel, 0, prep.fragments.size(), [&](std::size_t f) {
        const EmbeddingBasis emb =
            make_bath(prep.p_oao, prep.fragments[f], options.bath_threshold);
        prep.problems[f] = make_embedding(prep.ints, prep.lb, prep.p_oao, emb);
      });
  return prep;
}

Evaluation evaluate(const Prepared& prep, double mu,
                    const FragmentSolver& solver,
                    const std::function<bool(std::size_t)>& mine,
                    par::Comm* comm, const DmetOptions& options) {
  OBS_SPAN("dmet/evaluate");
  const std::size_t n = prep.problems.size();
  Evaluation ev;
  ev.mu = mu;
  ev.fragment_energies.assign(n, 0.0);
  ev.fragment_electrons.assign(n, 0.0);
  ev.fragment_parameters.assign(n, {});
  if (options.equivalent_fragments && n > 0) {
    OBS_SPAN("dmet/fragment_solve");
    fragment_solve_counter().add();
    const EmbeddingProblem& prob = prep.problems[0];
    const chem::MoIntegrals solver_mo =
        with_chemical_potential(prob.solver, prob.fragment_orbitals, mu);
    const FragmentSolution sol = solver(prob, solver_mo);
    for (std::size_t f = 0; f < n; ++f) {
      ev.fragment_energies[f] = sol.energy;
      ev.fragment_electrons[f] = sol.electrons;
      ev.fragment_parameters[f] = sol.parameters;
      ev.energy += sol.energy;
      ev.electrons += sol.electrons;
    }
    return ev;
  }
  // Non-equivalent fragments solve independently: fan this rank's share out
  // on the shared-memory pool (fragment solves nest VQE term sweeps — the
  // pool's caller-runs waiting keeps that safe). Each solve writes its own
  // slot; the index-order reduction below is thread-count independent.
  std::vector<std::size_t> todo;
  for (std::size_t f = 0; f < n; ++f)
    if (mine(f)) todo.push_back(f);
  par::parallel_for(options.parallel, 0, todo.size(), [&](std::size_t t) {
    const std::size_t f = todo[t];
    OBS_SPAN("dmet/fragment_solve");
    fragment_solve_counter().add();
    const EmbeddingProblem& prob = prep.problems[f];
    const chem::MoIntegrals solver_mo =
        with_chemical_potential(prob.solver, prob.fragment_orbitals, mu);
    FragmentSolution sol = solver(prob, solver_mo);
    ev.fragment_energies[f] = sol.energy;
    ev.fragment_electrons[f] = sol.electrons;
    ev.fragment_parameters[f] = std::move(sol.parameters);
  });
  if (comm) {
    // Level-1 exchange (§IV-C): each owner contributes one record per
    // fragment it solved — index, energy, electron count, optimum — and one
    // allgather hands every rank the whole sweep with the owners' bits.
    std::vector<double> records;
    for (std::size_t f : todo) {
      const std::vector<double>& x = ev.fragment_parameters[f];
      records.insert(records.end(),
                     {double(f), ev.fragment_energies[f],
                      ev.fragment_electrons[f], double(x.size())});
      records.insert(records.end(), x.begin(), x.end());
    }
    const std::vector<double> all = comm->allgatherv(records);
    for (std::size_t at = 0; at < all.size();) {
      const std::size_t f = std::size_t(all[at]);
      const std::size_t k = std::size_t(all[at + 3]);
      ev.fragment_energies[f] = all[at + 1];
      ev.fragment_electrons[f] = all[at + 2];
      const double* x = all.data() + at + 4;
      ev.fragment_parameters[f].assign(x, x + k);
      at += 4 + k;
    }
  }
  for (std::size_t f = 0; f < n; ++f) {
    ev.energy += ev.fragment_energies[f];
    ev.electrons += ev.fragment_electrons[f];
  }
  return ev;
}

// The chemical-potential fit's budget. The first bracket step from µ = 0 (+
// when N(0) is below the target, − otherwise):
constexpr double kMuBracket = 0.5;
// While N stays on µ = 0's side, the bracket's inner end moves to the new
// point and the step doubles, at most this many times before the fit is
// declared failed (result.converged = false):
constexpr int kMaxBracketExpansions = 6;
// Illinois steps allowed inside the bracket:
constexpr int kMaxMuIterations = 30;

// The chemical-potential fit as an explicit state machine. Each step
// performs at most one µ-evaluation (one full fragment-solve sweep), and
// everything step k+1 reads lives in MuLoopState, so the checkpoint layer can
// persist the fit between any two sweeps and resume it bit-identically.
//
// N(µ) increases with µ. The fit evaluates µ = 0, then brackets the root from
// that side only: it steps by kMuBracket toward the root, doubling the step
// while N stays on the same side of the target. Inside the bracket it takes
// Illinois steps (regula falsi whose stale endpoint residual is halved when
// the same endpoint is replaced twice in a row), with the midpoint as the
// fallback, so no µ is ever evaluated twice.
struct MuLoopState {
  enum Phase : int {
    kInit = 0,
    kBracket,
    kSecant,
    kDone,
  };
  int phase = kInit;
  double step = 0.0;              ///< next bracket step from the inner end
  double f_lo = 0.0, f_hi = 0.0;  ///< stored residuals N − target (Illinois)
  int last_moved = 0;             ///< end replaced last: −1 lo, +1 hi, 0 none
  int mu_iterations = 0;  ///< µ-evaluations performed (global across resumes)
  int expansions = 0, secant_steps = 0;
  bool bracket_failed = false;
  /// The last sweep and the bracket ends (µ, N, per-fragment solutions and
  /// optima). Every µ evaluated so far is a bracket end or lies beyond one,
  /// and every later sweep lies beyond the inner end or inside the bracket,
  /// so the ends hold the nearest evaluated µ of any later sweep.
  Evaluation ev, ev_lo, ev_hi;
};

// The evaluation whose optima warm-start a sweep at mu: the nearest µ already
// evaluated, the earlier sweep on a tie; nullptr before the first sweep.
const Evaluation* nearest_evaluation(const MuLoopState& st, double mu) {
  const Evaluation* best = nullptr;
  for (const Evaluation* e : {&st.ev_lo, &st.ev_hi}) {
    if (e->sweep < 0) continue;
    if (!best) {
      best = e;
      continue;
    }
    const double d = std::abs(e->mu - mu), d_best = std::abs(best->mu - mu);
    if (d < d_best || (d == d_best && e->sweep < best->sweep)) best = e;
  }
  return best;
}

constexpr const char* kSnapshotKind = "dmet";
// Version 1 (no version field) was the layout of the bisection fit.
constexpr std::uint32_t kSnapshotLayout = 2;

void write_evaluation(ckpt::ByteWriter& w, const Evaluation& ev) {
  w.i32(ev.sweep);
  w.f64(ev.mu);
  w.f64(ev.energy);
  w.f64(ev.electrons);
  w.vec(ev.fragment_energies);
  w.vec(ev.fragment_electrons);
  w.vec(ev.fragment_parameters);
}

Evaluation read_evaluation(ckpt::ByteReader& r) {
  Evaluation ev;
  ev.sweep = r.i32();
  ev.mu = r.f64();
  ev.energy = r.f64();
  ev.electrons = r.f64();
  ev.fragment_energies = r.vec_f64();
  ev.fragment_electrons = r.vec_f64();
  ev.fragment_parameters = r.vec_vec_f64();
  return ev;
}

ckpt::Snapshot encode_dmet_snapshot(const MuLoopState& st,
                                    std::size_t n_fragments) {
  ckpt::Snapshot snap;
  ckpt::ByteWriter meta;
  meta.str(kSnapshotKind);
  meta.u64(n_fragments);
  meta.u32(kSnapshotLayout);
  snap.set("meta", meta.take());
  ckpt::ByteWriter w;
  w.i32(st.phase);
  w.f64(st.step);
  w.f64(st.f_lo);
  w.f64(st.f_hi);
  w.i32(st.last_moved);
  w.i32(st.mu_iterations);
  w.i32(st.expansions);
  w.i32(st.secant_steps);
  w.b(st.bracket_failed);
  write_evaluation(w, st.ev);
  write_evaluation(w, st.ev_lo);
  write_evaluation(w, st.ev_hi);
  snap.set("mu_loop", w.take());
  return snap;
}

void decode_dmet_snapshot(const ckpt::Snapshot& snap, std::size_t n_fragments,
                          MuLoopState& st) {
  ckpt::ByteReader meta(snap.at("meta"));
  require(meta.str() == kSnapshotKind,
          "dmet: snapshot was not written by a DMET run");
  require(meta.u64() == n_fragments,
          "dmet: snapshot fragment count mismatch");
  const std::uint32_t layout = meta.at_end() ? 1 : meta.u32();
  if (layout != kSnapshotLayout)
    throw Error("dmet: snapshot layout version " + std::to_string(layout) +
                " found, version " + std::to_string(kSnapshotLayout) +
                " expected; restart the fit without resuming");
  ckpt::ByteReader r(snap.at("mu_loop"));
  st.phase = r.i32();
  require(st.phase >= MuLoopState::kInit && st.phase <= MuLoopState::kDone,
          "dmet: snapshot µ-loop phase out of range");
  st.step = r.f64();
  st.f_lo = r.f64();
  st.f_hi = r.f64();
  st.last_moved = r.i32();
  st.mu_iterations = r.i32();
  st.expansions = r.i32();
  st.secant_steps = r.i32();
  st.bracket_failed = r.b();
  st.ev = read_evaluation(r);
  st.ev_lo = read_evaluation(r);
  st.ev_hi = read_evaluation(r);
  require(r.at_end(), "dmet: snapshot µ-loop section has trailing bytes");
}

// Advances the fit by one transition; returns true when a µ-evaluation was
// performed (the checkpointable unit of work).
template <typename EvalFn>
bool mu_loop_step(MuLoopState& st, const Prepared& prep, double target,
                  const DmetOptions& options, const EvalFn& eval) {
  const auto converged = [&](const Evaluation& e) {
    return std::abs(e.electrons - target) <= kElectronTolerance;
  };
  switch (st.phase) {
    case MuLoopState::kInit: {
      st.ev = eval(0.0);
      const double f = st.ev.electrons - target;
      if (!options.fit_chemical_potential || converged(st.ev) ||
          prep.problems.size() <= 1) {
        st.phase = MuLoopState::kDone;
      } else if (f < 0.0) {
        st.ev_lo = st.ev;
        st.f_lo = f;
        st.step = kMuBracket;
        st.phase = MuLoopState::kBracket;
      } else {
        st.ev_hi = st.ev;
        st.f_hi = f;
        st.step = -kMuBracket;
        st.phase = MuLoopState::kBracket;
      }
      return true;
    }
    case MuLoopState::kBracket: {
      // Step outward from the inner end — the evaluated end on µ = 0's side.
      const bool up = st.step > 0.0;
      Evaluation& inner = up ? st.ev_lo : st.ev_hi;
      st.ev = eval(inner.mu + st.step);
      const double f = st.ev.electrons - target;
      if (converged(st.ev)) {
        st.phase = MuLoopState::kDone;
      } else if ((f < 0.0) != up) {  // crossed: the bracket holds the root
        (up ? st.ev_hi : st.ev_lo) = st.ev;
        (up ? st.f_hi : st.f_lo) = f;
        st.phase = MuLoopState::kSecant;
      } else if (st.expansions < kMaxBracketExpansions) {
        inner = st.ev;
        (up ? st.f_lo : st.f_hi) = f;
        st.step *= 2.0;
        ++st.expansions;
      } else {
        st.bracket_failed = true;
        log::warn("dmet: chemical-potential bracket failed: N(mu) = " +
                  std::to_string(st.ev.electrons) + " at mu = " +
                  std::to_string(st.ev.mu) + " is still " +
                  (up ? "below" : "above") + " the target " +
                  std::to_string(target) + " electrons after " +
                  std::to_string(st.expansions) +
                  " expansions; result marked unconverged");
        st.phase = MuLoopState::kDone;
      }
      return true;
    }
    case MuLoopState::kSecant: {
      const double lo = st.ev_lo.mu, hi = st.ev_hi.mu;
      double mu = lo - st.f_lo * (hi - lo) / (st.f_hi - st.f_lo);
      if (!(mu > lo && mu < hi)) mu = 0.5 * (lo + hi);
      // Out of steps, or the bracket has shrunk to adjacent doubles.
      if (st.secant_steps >= kMaxMuIterations ||
          !(mu > lo && mu < hi)) {
        st.phase = MuLoopState::kDone;
        return false;
      }
      st.ev = eval(mu);
      ++st.secant_steps;
      const double f = st.ev.electrons - target;
      if (converged(st.ev)) {
        st.phase = MuLoopState::kDone;
      } else if (f < 0.0) {
        if (st.last_moved < 0) st.f_hi *= 0.5;
        st.ev_lo = st.ev;
        st.f_lo = f;
        st.last_moved = -1;
      } else {
        if (st.last_moved > 0) st.f_lo *= 0.5;
        st.ev_hi = st.ev;
        st.f_hi = f;
        st.last_moved = 1;
      }
      return true;
    }
    case MuLoopState::kDone:
      return false;
  }
  return false;
}

DmetResult drive(const chem::Molecule& molecule, const DmetOptions& options,
                 const FragmentSolver& solver,
                 const std::function<bool(std::size_t)>& mine,
                 par::Comm* comm) {
  OBS_SPAN("dmet/drive");
  // Only one rank of a distributed run reports or writes snapshots (all
  // ranks see the same exchanged values, so any single rank's records are
  // complete); every rank loads the same snapshot on resume.
  const bool primary = !comm || comm->rank() == 0;
  // The manager refuses a snapshot path its writer cannot use before the
  // integrals are computed; the snapshot loads once the fragments are known.
  std::unique_ptr<ckpt::CheckpointManager> manager;
  if (options.checkpoint.enabled())
    manager = std::make_unique<ckpt::CheckpointManager>(options.checkpoint,
                                                        /*writer=*/primary);
  Prepared prep = prepare(molecule, options);
  const double target = double(molecule.n_electrons());
  obs::RunReport& sink = obs::RunReport::global();
  const bool reporting = sink.is_open() && primary;

  MuLoopState st;
  if (manager)
    if (const auto snap = manager->load_latest_valid())
      decode_dmet_snapshot(*snap, prep.problems.size(), st);

  auto eval = [&](double mu_value) {
    // Warm starts go into the driver's own problems; every rank holds the
    // whole table, keyed by fragment index.
    const Evaluation* start = nearest_evaluation(st, mu_value);
    for (std::size_t f = 0; f < prep.problems.size(); ++f)
      prep.problems[f].initial_parameters =
          start ? start->fragment_parameters[f] : std::vector<double>{};
    Evaluation ev = evaluate(prep, mu_value, solver, mine, comm, options);
    ev.sweep = st.mu_iterations;
    if (!std::isfinite(ev.electrons) || !std::isfinite(ev.energy))
      throw Error("dmet: fragment solves at mu = " + std::to_string(mu_value) +
                  " returned a non-finite energy or electron count");
    if (reporting)
      sink.record("dmet_cycle",
                  {{"cycle", ev.sweep},
                   {"phase", st.phase == MuLoopState::kSecant ? "secant"
                                                              : "bracket"},
                   {"mu", mu_value},
                   {"warm_start_mu", start ? obs::JsonValue(start->mu)
                                           : obs::JsonValue(nullptr)},
                   {"energy", ev.energy},
                   {"electrons", ev.electrons},
                   {"residual", ev.electrons - target},
                   {"fragment_energies", ev.fragment_energies},
                   {"fragment_electrons", ev.fragment_electrons}});
    ++st.mu_iterations;
    return ev;
  };

  while (st.phase != MuLoopState::kDone) {
    const bool evaluated = mu_loop_step(st, prep, target, options, eval);
    if (manager && evaluated && manager->due(st.mu_iterations, false)) {
      OBS_SPAN("ckpt/save");
      manager->save(st.mu_iterations,
                    encode_dmet_snapshot(st, prep.problems.size()));
    }
  }
  if (manager) {
    // Terminal snapshot: a rerun resumes to the finished state instead of
    // recomputing the fit.
    OBS_SPAN("ckpt/save");
    manager->save(st.mu_iterations,
                  encode_dmet_snapshot(st, prep.problems.size()));
  }

  DmetResult result;
  result.hf_energy = prep.hf_energy;
  result.mu_iterations = st.mu_iterations;
  result.converged =
      !st.bracket_failed &&
      (std::abs(st.ev.electrons - target) <= kElectronTolerance ||
       !options.fit_chemical_potential || prep.problems.size() == 1);
  result.mu = st.ev.mu;
  result.total_electrons = st.ev.electrons;
  result.fragment_energies = st.ev.fragment_energies;
  result.fragment_electrons = st.ev.fragment_electrons;
  result.energy = st.ev.energy + molecule.nuclear_repulsion();
  if (reporting)
    sink.record("dmet_result", {{"converged", result.converged},
                                {"energy", result.energy},
                                {"hf_energy", result.hf_energy},
                                {"mu", result.mu},
                                {"mu_iterations", result.mu_iterations},
                                {"total_electrons", result.total_electrons}});
  return result;
}

}  // namespace

DmetResult run_dmet(const chem::Molecule& molecule, const DmetOptions& options,
                    const FragmentSolver& solver) {
  return drive(molecule, options, solver, [](std::size_t) { return true; },
               nullptr);
}

DmetResult run_dmet_distributed(const chem::Molecule& molecule,
                                const DmetOptions& options,
                                const FragmentSolver& solver, par::Comm& comm,
                                int groups) {
  require(groups >= 1 && groups <= comm.size(),
          "run_dmet_distributed: bad group count");
  // Split ranks into `groups` sub-communicators; group g owns fragments
  // f with f % groups == g, and only the group's rank 0 contributes values
  // (the other ranks of the group mirror the computation deterministically).
  const int color = comm.rank() % groups;
  par::Comm sub = comm.split(color, comm.rank());
  auto mine = [&](std::size_t f) {
    return int(f % std::size_t(groups)) == color && sub.rank() == 0;
  };
  return drive(molecule, options, solver, mine, &comm);
}

}  // namespace q2::dmet
