#include "vqe/vqe_driver.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "chem/hamiltonian.hpp"
#include "ckpt/serialize.hpp"
#include "common/timer.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/scheduler.hpp"

namespace q2::vqe {
namespace {

constexpr const char* kSnapshotKind = "vqe";
// Layout 1 had no version: its "meta" held (kind, i32 optimizer kind 0-2,
// u64 count), as long as a (kind, u64 count, u32 layout) meta, with an
// optimizer kind where a version would sit. So the version has a section of
// its own, and a snapshot without one is layout 1.
constexpr std::uint32_t kSnapshotLayout = 2;

// Snapshot layout for a VQE run: its layout version, a "meta" section
// guarding against resuming with a different ansatz, and the full optimizer
// state.
ckpt::Snapshot encode_vqe_snapshot(std::size_t n_parameters,
                                   const OptimizerState& state) {
  ckpt::Snapshot snap;
  ckpt::ByteWriter layout;
  layout.u32(kSnapshotLayout);
  snap.set("layout", layout.take());
  ckpt::ByteWriter meta;
  meta.str(kSnapshotKind);
  meta.u64(n_parameters);
  snap.set("meta", meta.take());
  ckpt::ByteWriter opt;
  ckpt::write_optimizer_state(opt, state);
  snap.set("optimizer", opt.take());
  return snap;
}

OptimizerState decode_vqe_snapshot(const ckpt::Snapshot& snap,
                                   std::size_t n_parameters) {
  ckpt::ByteReader meta(snap.at("meta"));
  require(meta.str() == kSnapshotKind,
          "vqe: snapshot was not written by a VQE run");
  const auto* layout_bytes = snap.find("layout");
  const std::uint32_t layout =
      layout_bytes ? ckpt::ByteReader(*layout_bytes).u32() : 1;
  if (layout != kSnapshotLayout)
    throw Error("vqe: snapshot layout version " + std::to_string(layout) +
                " found, version " + std::to_string(kSnapshotLayout) +
                " expected; restart the run without resuming");
  require(meta.u64() == n_parameters,
          "vqe: snapshot ansatz parameter count mismatch");
  ckpt::ByteReader opt(snap.at("optimizer"));
  OptimizerState state = ckpt::read_optimizer_state(opt);
  require(opt.at_end(), "vqe: snapshot optimizer section has trailing bytes");
  require(state.parameters.size() == n_parameters,
          "vqe: snapshot optimizer state is inconsistent");
  return state;
}

// The caller's starting point, or the ansatz default when none is given. A
// malformed one is an error: falling back to the default would hide it.
std::vector<double> starting_point(const VqeOptions& options,
                                   const UccsdAnsatz& ansatz) {
  const std::vector<double>& x0 = options.initial_parameters;
  if (x0.empty()) return initial_parameters(ansatz);
  if (x0.size() != ansatz.n_parameters)
    throw Error("vqe: initial_parameters has " + std::to_string(x0.size()) +
                " entries, the ansatz has " +
                std::to_string(ansatz.n_parameters) + " parameters");
  for (std::size_t k = 0; k < x0.size(); ++k)
    if (!std::isfinite(x0[k]))
      throw Error("vqe: initial_parameters[" + std::to_string(k) +
                  "] is not finite");
  return x0;
}

// `report` gates run-report emission so only rank 0 of a distributed run
// writes records (every rank executes the same optimizer trajectory).
VqeResult optimize(const EnergyEvaluator& evaluator, const UccsdAnsatz& ansatz,
                   const VqeOptions& options, const EnergyFn& energy_fn,
                   const GradientFn& grad_fn, bool report = true) {
  OBS_SPAN("vqe/optimize");
  const std::vector<double> x0 = starting_point(options, ansatz);

  OptimizerOptions opt_options = options.optimizer;
  obs::RunReport& sink = obs::RunReport::global();
  const bool reporting = report && sink.is_open();
  std::shared_ptr<Timer> iter_timer;
  if (reporting) {
    sink.record("vqe_setup",
                {{"n_qubits", ansatz.circuit.n_qubits()},
                 {"n_parameters", ansatz.n_parameters},
                 {"n_pauli_terms", evaluator.n_terms()},
                 {"transfers_per_evaluation",
                  evaluator.transfers_per_evaluation()},
                 {"mpo_bond_max", evaluator.measurement_mpo().max_bond()},
                 {"compiled_gates", evaluator.compiled_ansatz().gates.size()},
                 {"swaps_elided", evaluator.compiled_ansatz().stats.swaps_elided},
                 {"circuit_gates", ansatz.circuit.size()},
                 {"gradient",
                  evaluator.adjoint_applies(x0) ? "adjoint" : "central"}});
    iter_timer = std::make_shared<Timer>();
    const IterationObserver user_observer = opt_options.iteration_observer;
    opt_options.iteration_observer = [&evaluator, iter_timer, user_observer](
                                         int it, double e, double gnorm) {
      obs::RunReport::global().record(
          "vqe_iteration",
          {{"iteration", it},
           {"energy", e},
           {"gradient_norm", gnorm},
           {"truncation_error", evaluator.last_truncation_error()},
           {"wall_seconds", iter_timer->seconds()}});
      iter_timer->reset();
      if (user_observer) user_observer(it, e, gnorm);
    };
  }

  // Checkpoint/resume: load the newest valid snapshot (every rank of a
  // distributed run reads the same file; only the reporting rank writes),
  // then hook snapshot writes onto the optimizer's state observer. The
  // resumed trajectory is bit-identical to the uninterrupted one because the
  // state carries every input of the next iteration in exact binary form.
  OptimizerState state;
  std::unique_ptr<ckpt::CheckpointManager> manager;
  if (options.checkpoint.enabled()) {
    manager = std::make_unique<ckpt::CheckpointManager>(options.checkpoint,
                                                        /*writer=*/report);
    if (const auto snap = manager->load_latest_valid())
      state = decode_vqe_snapshot(*snap, ansatz.n_parameters);
    // user_observer dies with this block — the lambda must own its copy.
    const StateObserver user_observer = opt_options.state_observer;
    opt_options.state_observer = [&, user_observer](const OptimizerState& st) {
      if (user_observer) user_observer(st);
      if (!manager->due(st.iteration, st.finished)) return;
      OBS_SPAN("ckpt/save");
      manager->save(st.iteration,
                    encode_vqe_snapshot(ansatz.n_parameters, st));
    };
  }
  if (!state.initialized) state.parameters = x0;

  OptimizerResult opt =
      minimize_lbfgs_from(energy_fn, grad_fn, state, opt_options);

  VqeResult r;
  r.converged = opt.converged;
  r.energy = opt.energy;
  r.iterations = opt.iterations;
  r.parameters = std::move(opt.parameters);
  r.history = std::move(opt.history);
  r.n_pauli_terms = evaluator.n_terms();
  r.n_parameters = ansatz.n_parameters;
  r.circuit_gates = ansatz.circuit.size();
  if (reporting)
    sink.record("vqe_result", {{"converged", r.converged},
                               {"energy", r.energy},
                               {"iterations", r.iterations}});
  return r;
}

}  // namespace

VqeResult run_vqe_on(const pauli::QubitOperator& hamiltonian,
                     const UccsdAnsatz& ansatz, const VqeOptions& options) {
  const EnergyEvaluator evaluator(ansatz.circuit, hamiltonian, options.mps,
                                  options.measurement);
  return run_vqe_on(evaluator, ansatz, options);
}

VqeResult run_vqe_on(const EnergyEvaluator& evaluator,
                     const UccsdAnsatz& ansatz, const VqeOptions& options) {
  EnergyFn f = [&](const std::vector<double>& x) { return evaluator.energy(x); };
  GradientFn g = [&](const std::vector<double>& x) {
    if (std::optional<std::vector<double>> adjoint =
            evaluator.adjoint_gradient(x))
      return std::move(*adjoint);
    return evaluator.gradient(x, options.gradient_eps);
  };
  return optimize(evaluator, ansatz, options, f, g);
}

VqeResult run_vqe(const chem::MoIntegrals& mo, int n_alpha, int n_beta,
                  const VqeOptions& options) {
  require(n_alpha == n_beta, "run_vqe: closed-shell only");
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(mo);
  const UccsdAnsatz ansatz =
      build_uccsd(mo.n_orbitals(), n_alpha, n_beta, options.ansatz);
  return run_vqe_on(h, ansatz, options);
}

std::vector<double> distributed_gradient(const EnergyEvaluator& evaluator,
                                         const std::vector<double>& x,
                                         double eps, par::Comm& comm) {
  const std::size_t ranks = std::size_t(comm.size());
  const std::vector<std::size_t> mine =
      evaluator.gradient_share(std::size_t(comm.rank()), ranks);
  const std::vector<double> local = evaluator.gradient(x, eps, mine);
  std::vector<double> values;
  values.reserve(mine.size());
  for (std::size_t k : mine) values.push_back(local[k]);
  // Rank r's entries arrive as block r, in the order of its share.
  const std::vector<double> gathered = comm.allgatherv(values);
  std::vector<double> g(x.size(), 0.0);
  std::size_t at = 0;
  for (std::size_t r = 0; r < ranks; ++r)
    for (std::size_t k : evaluator.gradient_share(r, ranks))
      g[k] = gathered[at++];
  return g;
}

VqeResult run_vqe_distributed(const chem::MoIntegrals& mo, int n_alpha,
                              int n_beta, const VqeOptions& options,
                              par::Comm& comm) {
  require(n_alpha == n_beta, "run_vqe_distributed: closed-shell only");
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(mo);
  const UccsdAnsatz ansatz =
      build_uccsd(mo.n_orbitals(), n_alpha, n_beta, options.ansatz);
  const EnergyEvaluator evaluator(ansatz.circuit, h, options.mps,
                                  options.measurement);
  const bool report = comm.rank() == 0;

  if (options.measurement == MeasurementMode::kDirect) {
    // Direct mode prepares one state per evaluation, so splitting its terms
    // would make every rank prepare every state. Each rank instead evaluates
    // the line-search energies itself (no collective: every rank computes
    // the same bits). Where the MPS is exact, each rank also computes the
    // whole adjoint gradient itself, again without a collective; otherwise
    // it owns a share of the central-difference entries, assembled by one
    // allgather per gradient. Whether the adjoint applies depends only on
    // the evaluator and x, so every rank takes the same branch.
    EnergyFn f = [&](const std::vector<double>& x) {
      return evaluator.energy(x);
    };
    GradientFn g = [&](const std::vector<double>& x) {
      if (std::optional<std::vector<double>> adjoint =
              evaluator.adjoint_gradient(x))
        return std::move(*adjoint);
      return distributed_gradient(evaluator, x, options.gradient_eps, comm);
    };
    return optimize(evaluator, ansatz, options, f, g, report);
  }

  // Hadamard-test mode: every Pauli string is its own circuit (Fig. 5), so
  // the strings are LPT-partitioned over ranks (level-2 parallelism) and
  // each evaluation broadcasts the parameters from the root and sums the
  // partial energies (MPI_Bcast + MPI_Allreduce, Fig. 4).
  const par::Schedule schedule =
      par::lpt_schedule(evaluator.term_costs(), std::size_t(comm.size()));
  std::vector<std::size_t> mine;
  for (std::size_t t = 0; t < schedule.assignment.size(); ++t)
    if (schedule.assignment[t] == std::size_t(comm.rank())) mine.push_back(t);
  auto split_energy = [&](const std::vector<double>& x, bool iterate) {
    std::vector<double> params = x;
    comm.bcast(params, 0);
    const double partial = evaluator.partial_energy(params, mine, iterate);
    return evaluator.constant_term() + comm.allreduce_sum(partial);
  };
  EnergyFn f = [&](const std::vector<double>& x) {
    return split_energy(x, /*iterate=*/true);
  };
  GradientFn g = [&](const std::vector<double>& x) {
    return finite_difference_gradient(
        [&](const std::vector<double>& xp) {
          return split_energy(xp, /*iterate=*/false);
        },
        x, options.gradient_eps);
  };
  return optimize(evaluator, ansatz, options, f, g, report);
}

}  // namespace q2::vqe
