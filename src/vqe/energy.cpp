#include "vqe/energy.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "pauli/grouping.hpp"
#include "sim/hadamard_test.hpp"

namespace q2::vqe {
namespace {

obs::Counter& evaluation_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("vqe.energy_evaluations");
  return c;
}
obs::Counter& term_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("vqe.pauli_terms_measured");
  return c;
}
obs::Counter& adjoint_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("vqe.adjoint_gradients");
  return c;
}
obs::Gauge& transfers_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("vqe.transfers_per_evaluation");
  return g;
}

// Materialize a parametric circuit at fixed angles — the per-step "circuit
// synchronization" cost the memory-efficient scheme avoids.
circ::Circuit bind_parameters(const circ::Circuit& c,
                              const std::vector<double>& params) {
  circ::Circuit out(c.n_qubits());
  for (circ::Gate g : c.gates()) {
    if (g.is_parametric()) {
      g.theta = g.angle(params);
      g.param_index = -1;
      g.param_scale = 1.0;
    }
    out.append(std::move(g));
  }
  return out;
}

// Whether a preparation counts as exact for the adjoint gradient.
bool exact(const sim::Mps& psi) {
  return psi.truncation_error() <= EnergyEvaluator::kAdjointTruncationBound;
}

// Deals items [0, n) over up to `threads` pool workers, longest first (LPT
// on `cost`), and runs `run_bin` once per worker on its items in ascending
// order; with one thread, one bin holds every item and runs on the calling
// thread. Bins write per-item slots and the caller reduces them in index
// order afterwards, so results are bit-identical for every thread count.
void deal_lpt(
    std::size_t threads, std::size_t n,
    const std::function<double(std::size_t)>& cost,
    const std::function<void(const std::vector<std::size_t>&)>& run_bin) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    run_bin(all);
    return;
  }
  std::vector<double> costs(n);
  for (std::size_t j = 0; j < n; ++j) costs[j] = cost(j);
  const std::vector<std::size_t> assignment = par::lpt_assign(costs, threads);
  std::vector<std::vector<std::size_t>> bins(threads);
  for (std::size_t j = 0; j < n; ++j) bins[assignment[j]].push_back(j);
  par::ThreadPool::global().parallel_for(
      0, threads, [&](std::size_t b) { run_bin(bins[b]); },
      /*grain=*/1, /*max_threads=*/threads);
}

// Every n-th entry of `items`, starting at `worker`.
std::vector<std::size_t> round_robin_share(
    const std::vector<std::size_t>& items, std::size_t worker, std::size_t n) {
  std::vector<std::size_t> share;
  for (std::size_t i = worker; i < items.size(); i += n)
    share.push_back(items[i]);
  return share;
}

// Deals `items` (in sweep order) round-robin over the pool workers and runs
// `sweep` once per worker on its share. A share keeps the sweep order, so a
// worker's base state only ever moves forward. Each sweep writes its own
// items' output slots, so results do not depend on the deal.
void deal_sweeps(
    const par::ParallelOptions& opts, const std::vector<std::size_t>& items,
    const std::function<void(const std::vector<std::size_t>&)>& sweep) {
  const std::size_t n_workers =
      std::min(par::resolve_threads(opts), items.size());
  if (n_workers <= 1) {
    sweep(items);
    return;
  }
  par::ThreadPool::global().parallel_for(
      0, n_workers,
      [&](std::size_t w) { sweep(round_robin_share(items, w, n_workers)); },
      /*grain=*/1, /*max_threads=*/n_workers);
}

// One worker's forward sweep over a compiled stream: a base state advanced at
// the unshifted parameters, and one branch copied from it for each shifted
// suffix replay. At most two MPS are live, whatever the number of shifts.
class PrefixSweep {
 public:
  PrefixSweep(const circ::CompiledCircuit& c, const std::vector<double>& params,
              const sim::MpsOptions& options)
      : c_(c),
        params_(params),
        base_(c.gates.n_qubits(), options),
        branch_(c.gates.n_qubits(), options) {}

  /// A copy of the state after gates [0, gate) at the unshifted parameters;
  /// `gate` must not decrease from one call to the next.
  sim::Mps& branch_at(std::size_t gate) {
    require(gate >= at_, "PrefixSweep: the sweep only moves forward");
    if (gate > at_) base_.run(c_, params_, at_, gate);
    at_ = gate;
    branch_ = base_;
    return branch_;
  }

 private:
  const circ::CompiledCircuit& c_;
  const std::vector<double>& params_;
  sim::Mps base_, branch_;
  std::size_t at_ = 0;
};

}  // namespace

EnergyEvaluator::EnergyEvaluator(circ::Circuit ansatz,
                                 pauli::QubitOperator hamiltonian,
                                 sim::MpsOptions mps_options,
                                 MeasurementMode mode, CircuitStorage storage)
    : ansatz_(std::move(ansatz)),
      hamiltonian_(std::move(hamiltonian)),
      mps_options_(mps_options),
      mode_(mode),
      storage_(storage) {
  OBS_SPAN("vqe/evaluator_init");
  require(std::size_t(ansatz_.n_qubits()) == hamiltonian_.n_qubits(),
          "EnergyEvaluator: qubit count mismatch");
  require(hamiltonian_.is_hermitian(1e-8),
          "EnergyEvaluator: Hamiltonian must be Hermitian");
  for (auto& [p, c] : hamiltonian_.sorted_terms()) {
    if (p.is_identity())
      constant_ += c.real();
    else
      terms_.emplace_back(std::move(p), c);
  }
  if (storage_ == CircuitStorage::kStoreAll &&
      mode_ == MeasurementMode::kHadamardTest) {
    stored_circuits_.reserve(terms_.size());
    for (const auto& [p, c] : terms_)
      stored_circuits_.push_back(sim::hadamard_test_circuit(ansatz_, p));
  }
  // Compile the ansatz once: lazy reordering + fusion + residual output
  // permutation, replayed with fresh parameter vectors every evaluation.
  // kStoreAll keeps the historical bind-and-eager-route path so the Fig. 9
  // storage-scheme comparison still measures what it claims to.
  use_compiled_ = mode_ == MeasurementMode::kDirect &&
                  storage_ == CircuitStorage::kMemoryEfficient;
  if (use_compiled_) compiled_ = circ::compile_for_mps(ansatz_);
  const std::size_t half = std::size_t(ansatz_.n_qubits()) / 2;
  adjoint_exact_ = use_compiled_ && half < 64 &&
                   mps_options_.max_bond >= (std::size_t(1) << half);
  if (mode_ == MeasurementMode::kDirect) {
    // The measured states carry compiled_.output_perm on the compiled path
    // and the identity on the eager one.
    const circ::QubitPermutation identity(ansatz_.n_qubits());
    mpo_ = pauli::build_measurement_mpo(
        terms_,
        (use_compiled_ ? compiled_.output_perm : identity).site_of_map());
  }
  transfers_gauge().set(double(transfers_per_evaluation()));
  all_terms_.resize(terms_.size());
  std::iota(all_terms_.begin(), all_terms_.end(), std::size_t{0});

  const std::vector<circ::Gate>& stream =
      use_compiled_ ? compiled_.gates.gates() : ansatz_.gates();
  first_gate_.assign(n_parameters(), stream.size());
  for (std::size_t i = stream.size(); i-- > 0;)
    if (stream[i].is_parametric())
      first_gate_[std::size_t(stream[i].param_index)] = i;
  sweep_order_.resize(n_parameters());
  std::iota(sweep_order_.begin(), sweep_order_.end(), std::size_t{0});
  std::stable_sort(sweep_order_.begin(), sweep_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return first_gate_[a] < first_gate_[b];
                   });
}

std::size_t EnergyEvaluator::stored_circuit_bytes() const {
  std::size_t b = ansatz_.memory_bytes();
  for (const auto& c : stored_circuits_) b += c.memory_bytes();
  return b;
}

double EnergyEvaluator::energy(const std::vector<double>& params) const {
  return constant_ + evaluate(params, nullptr, /*iterate=*/true);
}

double EnergyEvaluator::partial_energy(const std::vector<double>& params,
                                       const std::vector<std::size_t>& idx,
                                       bool iterate) const {
  std::vector<char> listed(terms_.size(), 0);
  for (std::size_t k : idx) {
    require(k < terms_.size(),
            "EnergyEvaluator::partial_energy: term index out of range");
    require(!listed[k],
            "EnergyEvaluator::partial_energy: term index listed twice");
    listed[k] = 1;
  }
  return evaluate(params, &idx, iterate);
}

double EnergyEvaluator::evaluate(const std::vector<double>& params,
                                 const std::vector<std::size_t>* idx,
                                 bool iterate) const {
  OBS_SPAN("vqe/energy");
  evaluation_counter().add();
  term_counter().add(idx ? idx->size() : terms_.size());
  return mode_ == MeasurementMode::kDirect
             ? measure_direct(params, idx, iterate)
             : measure_hadamard(params, idx ? *idx : all_terms_, iterate);
}

std::vector<std::size_t> EnergyEvaluator::gradient_share(
    std::size_t worker, std::size_t n_workers) const {
  require(n_workers > 0 && worker < n_workers,
          "EnergyEvaluator::gradient_share: worker out of range");
  return round_robin_share(sweep_order_, worker, n_workers);
}

std::vector<double> EnergyEvaluator::gradient(const std::vector<double>& x,
                                              double eps) const {
  return gradient(x, eps, sweep_order_);
}

std::vector<double> EnergyEvaluator::gradient(
    const std::vector<double>& x, double eps,
    const std::vector<std::size_t>& owned) const {
  OBS_SPAN("vqe/gradient");
  require(x.size() == n_parameters(),
          "EnergyEvaluator::gradient: parameter count mismatch");
  // A parameter listed twice would be computed twice, and on the compiled
  // path two workers could write its entry at once.
  std::vector<char> listed(n_parameters(), 0);
  for (std::size_t k : owned) {
    require(k < n_parameters(), "EnergyEvaluator::gradient: bad parameter");
    if (listed[k])
      throw Error("EnergyEvaluator::gradient: parameter " + std::to_string(k) +
                  " listed twice");
    listed[k] = 1;
  }
  std::vector<double> g(n_parameters(), 0.0);

  // The expression finite_difference_gradient evaluates, entry by entry:
  // same shifted points, same constant-first sum, same difference quotient.
  if (!use_compiled_) {
    std::vector<double> xp = x;
    for (std::size_t k : owned) {
      xp[k] = x[k] + eps;
      const double ep = constant_ + evaluate(xp, nullptr, /*iterate=*/false);
      xp[k] = x[k] - eps;
      const double em = constant_ + evaluate(xp, nullptr, /*iterate=*/false);
      xp[k] = x[k];
      g[k] = (ep - em) / (2 * eps);
    }
    return g;
  }

  std::vector<std::size_t> order = owned;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return first_gate_[a] < first_gate_[b];
                   });
  const std::size_t end = compiled_.gates.size();
  auto sweep_share = [&](const std::vector<std::size_t>& share) {
    PrefixSweep sweep(compiled_, x, mps_options_);
    std::vector<double> shifted = x;
    for (std::size_t k : share) {
      // A shift of parameter k changes no gate before its first one: both
      // points branch from the same prefix state and replay the suffix.
      double e[2];
      for (int side = 0; side < 2; ++side) {
        OBS_SPAN("vqe/energy");
        evaluation_counter().add();
        term_counter().add(terms_.size());
        shifted[k] = side == 0 ? x[k] + eps : x[k] - eps;
        sim::Mps& state = sweep.branch_at(first_gate_[k]);
        state.run(compiled_, shifted, first_gate_[k], end);
        OBS_SPAN("vqe/measure");
        e[side] = constant_ + measure_all(state);
      }
      shifted[k] = x[k];
      g[k] = (e[0] - e[1]) / (2 * eps);
    }
  };
  deal_sweeps(mps_options_.parallel, order, sweep_share);
  return g;
}

sim::Mps EnergyEvaluator::prepare(const std::vector<double>& x) const {
  sim::Mps state(ansatz_.n_qubits(), mps_options_);
  if (use_compiled_) {
    // Compiled once in the constructor; parameters bind at apply time and
    // measurement maps through the residual permutation.
    state.run(compiled_, x);
  } else {
    // The eager baseline (kStoreAll, or state_at in Hadamard-test mode):
    // re-materialize the bound circuit every call.
    state.run(bind_parameters(ansatz_, x), {});
  }
  return state;
}

std::shared_ptr<const EnergyEvaluator::PreparedState> EnergyEvaluator::kept_at(
    const std::vector<double>& x) const {
  if (!adjoint_exact_) return nullptr;
  std::shared_ptr<const PreparedState> kept;
  {
    std::lock_guard<std::mutex> lock(kept_mutex_);
    kept = kept_;
  }
  // Compared by bits: a kept state serves only the exact point it was
  // prepared at.
  if (kept && kept->x.size() == x.size() &&
      std::memcmp(kept->x.data(), x.data(), x.size() * sizeof(double)) == 0)
    return kept;
  return nullptr;
}

std::shared_ptr<const EnergyEvaluator::PreparedState>
EnergyEvaluator::recorded(const std::vector<double>& x) const {
  sim::Mps psi(ansatz_.n_qubits(), mps_options_);
  sim::MpsRecording recording;
  psi.run(compiled_, x, recording);
  // Moved, not run in place: a moved engine leaves its update scratch
  // behind, so the kept state holds no workspace.
  return std::make_shared<const PreparedState>(
      PreparedState{x, std::move(psi), std::move(recording)});
}

std::shared_ptr<const EnergyEvaluator::PreparedState>
EnergyEvaluator::kept_or_prepared(const std::vector<double>& x) const {
  if (std::shared_ptr<const PreparedState> kept = kept_at(x)) return kept;
  if (!adjoint_exact_)
    return std::make_shared<const PreparedState>(
        PreparedState{x, prepare(x), {}});
  // The previous state and its recording go before the next is recorded,
  // released outside the lock.
  std::shared_ptr<const PreparedState> previous;
  {
    std::lock_guard<std::mutex> lock(kept_mutex_);
    kept_.swap(previous);
  }
  previous.reset();
  const std::shared_ptr<const PreparedState> fresh = recorded(x);
  previous = fresh;
  {
    std::lock_guard<std::mutex> lock(kept_mutex_);
    kept_.swap(previous);
  }
  return fresh;  // another thread's state, if one was swapped in meanwhile,
                 // is released here, outside the lock
}

bool EnergyEvaluator::adjoint_applies(const std::vector<double>& x) const {
  require(x.size() == n_parameters(),
          "EnergyEvaluator: parameter count mismatch");
  return adjoint_exact_ && exact(kept_or_prepared(x)->psi);
}

sim::Mps EnergyEvaluator::state_at(const std::vector<double>& x) const {
  require(x.size() == n_parameters(),
          "EnergyEvaluator: parameter count mismatch");
  if (const std::shared_ptr<const PreparedState> kept = kept_at(x))
    return kept->psi;
  return prepare(x);
}

std::optional<std::vector<double>> EnergyEvaluator::adjoint_gradient(
    const std::vector<double>& x) const {
  if (!adjoint_exact_) return std::nullopt;  // no span where none can run
  OBS_SPAN("vqe/adjoint_gradient");
  require(x.size() == n_parameters(),
          "EnergyEvaluator: parameter count mismatch");
  // The kept psi(x) and its recording, or else a fresh recorded
  // preparation, which nothing else would read and so is not kept.
  std::shared_ptr<const PreparedState> prepared = kept_at(x);
  if (!prepared) prepared = recorded(x);
  if (!exact(prepared->psi)) return std::nullopt;
  adjoint_counter().add();
  std::vector<double> g(n_parameters(), 0.0);
  double norm = 0.0;
  sim::Mps lambda = [&] {
    OBS_SPAN("vqe/adjoint_lambda");
    return prepared->psi.apply_mpo(mpo_, norm);
  }();
  if (norm == 0.0) return g;  // H|psi> = 0: every entry is 0

  // Only lambda walks back. psi, a copy the restores overwrite, is taken
  // back to each rotation's state from the recording; the recording's
  // segments change exactly the sites the lambda walk marks touched since
  // the previous rotation, so the overlap environments stay consistent.
  // Gates before the first parametric one never need undoing.
  const std::vector<circ::Gate>& gates = compiled_.gates.gates();
  std::size_t first = gates.size();
  for (std::size_t f : first_gate_) first = std::min(first, f);
  sim::Mps psi = prepared->psi;
  std::size_t segment = prepared->recording.segments();
  sim::MpsOverlap overlap(lambda, psi);
  for (std::size_t i = gates.size(); i-- > first;) {
    const circ::Gate& gate = gates[i];
    const bool two = gate.is_two_qubit();
    const int lo = two ? std::min(gate.qubits[0], gate.qubits[1])
                       : gate.qubits[0];
    const int hi = two ? lo + 1 : lo;
    if (gate.is_parametric()) {
      psi.restore(prepared->recording, --segment);
      // d/dtheta exp(-i theta G / 2) = (-i/2) G exp(-i theta G / 2).
      constexpr cplx kZero{}, kHalf{0.5, 0.0}, kHalfI{0.0, 0.5};
      std::array<cplx, 4> op;
      switch (gate.kind) {
        case circ::GateKind::kRx: op = {kZero, -kHalfI, -kHalfI, kZero}; break;
        case circ::GateKind::kRy: op = {kZero, -kHalf, kHalf, kZero}; break;
        case circ::GateKind::kRz: op = {-kHalfI, kZero, kZero, kHalfI}; break;
        default:
          throw Error("EnergyEvaluator::adjoint_gradient: a parameter binds "
                      "a gate that is not a rotation");
      }
      g[std::size_t(gate.param_index)] +=
          gate.param_scale * 2 * overlap.local(lo, op).real() * norm;
    }
    if (i == first) break;
    lambda.apply_adjoint(gate, x);
    overlap.touched(lo, hi);
  }
  return g;
}

std::vector<double> EnergyEvaluator::term_costs() const {
  // Cost model: the measurement sweep length. For the direct path the
  // transfer contraction spans the string's support; for Hadamard tests the
  // routed control chains scale the same way. pauli::support_cost is the one
  // model shared with the measurement sweeps, so the LPT balancer and the
  // sweep itself cannot drift apart.
  std::vector<double> costs;
  costs.reserve(terms_.size());
  for (const auto& [p, c] : terms_) costs.push_back(pauli::support_cost(p));
  return costs;
}

std::vector<double> EnergyEvaluator::parameter_shift_gradient(
    const std::vector<double>& params) const {
  // Every compile pass preserves the relative order of parametric gates, so
  // occurrence j — the j-th parametric gate of the ansatz, which carries the
  // chain-rule binding — is also the j-th parametric gate of the compiled
  // stream.
  std::vector<const circ::Gate*> occurrences;
  for (const circ::Gate& g : ansatz_.gates())
    if (g.is_parametric()) occurrences.push_back(&g);
  // Two evaluations per occurrence, at +pi/2 (slot 2j) and -pi/2 (2j+1).
  // The inner term sweep stays serial: the shifted circuits already fan out.
  std::vector<double> shifted_e(2 * occurrences.size());
  auto shift_of = [](std::size_t side) {
    return side == 0 ? kPi / 2 : -kPi / 2;
  };

  if (use_compiled_) {
    // Shifting occurrence j changes no gate before its own: the sweep
    // advances past it once, and each shift applies the shifted gate to a
    // copy and replays the suffix.
    std::vector<std::size_t> occurrence_gate;
    const std::vector<circ::Gate>& stream = compiled_.gates.gates();
    for (std::size_t i = 0; i < stream.size(); ++i)
      if (stream[i].is_parametric()) occurrence_gate.push_back(i);
    auto sweep_share = [&](const std::vector<std::size_t>& share) {
      PrefixSweep sweep(compiled_, params, mps_options_);
      for (std::size_t occ : share) {
        const std::size_t at = occurrence_gate[occ];
        for (std::size_t side = 0; side < 2; ++side) {
          OBS_SPAN("vqe/shifted_circuit");
          circ::Gate shifted = stream[at];
          shifted.theta = shifted.angle(params) + shift_of(side);
          shifted.param_index = -1;
          shifted.param_scale = 1.0;
          sim::Mps& state = sweep.branch_at(at);
          state.apply(shifted, params);
          state.run(compiled_, params, at + 1, stream.size());
          shifted_e[2 * occ + side] = measure_all(state);
        }
      }
    };
    std::vector<std::size_t> order(occurrence_gate.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    deal_sweeps(mps_options_.parallel, order, sweep_share);
  } else {
    // Eager baseline: bind a copy of the ansatz with one occurrence's angle
    // overridden and run it whole. Each evaluation owns its circuit and
    // engine, so the 2N evaluations fan out independently.
    par::ParallelOptions opts = mps_options_.parallel;
    opts.grain = 1;  // each evaluation is a full circuit run
    par::parallel_for(opts, 0, shifted_e.size(), [&](std::size_t j) {
      OBS_SPAN("vqe/shifted_circuit");
      circ::Circuit shifted(ansatz_.n_qubits());
      std::size_t seen = 0;
      for (circ::Gate g : ansatz_.gates()) {
        if (g.is_parametric()) {
          if (seen == j / 2) {
            g.theta = g.angle(params) + shift_of(j % 2);
            g.param_index = -1;
            g.param_scale = 1.0;
          }
          ++seen;
        }
        shifted.append(std::move(g));
      }
      sim::Mps state(ansatz_.n_qubits(), mps_options_);
      state.run(bind_parameters(shifted, params), {});
      shifted_e[j] = measure_all(state);
    });
  }

  // Chain-rule serially so each entry is assembled in occurrence order.
  std::vector<double> grad(n_parameters(), 0.0);
  for (std::size_t occ = 0; occ < occurrences.size(); ++occ) {
    const circ::Gate& g = *occurrences[occ];
    grad[std::size_t(g.param_index)] +=
        g.param_scale * 0.5 * (shifted_e[2 * occ] - shifted_e[2 * occ + 1]);
  }
  return grad;
}

double EnergyEvaluator::reduce_terms(const sim::Mps& state,
                                     const std::vector<std::size_t>& idx,
                                     bool parallel_sweep) const {
  // Per-term contributions against the shared read-only state, reduced in
  // idx order below — the same addition sequence as a serial per-term loop,
  // so the energy is bit-identical for every thread count.
  const std::size_t threads =
      parallel_sweep ? par::resolve_threads(mps_options_.parallel) : 1;
  std::vector<double> contrib(idx.size());
  deal_lpt(
      threads, idx.size(),
      [&](std::size_t j) { return pauli::support_cost(terms_[idx[j]].first); },
      [&](const std::vector<std::size_t>& items) {
        for (std::size_t j : items) {
          const auto& [p, c] = terms_[idx[j]];
          contrib[j] = (c * state.expectation(p)).real();
        }
      });
  double e = 0;
  for (double c : contrib) e += c;
  // The sweep's own arithmetic beyond the per-term expectations: one
  // coefficient multiply per term plus the index-order reduction.
  obs::WorkCounter::charge(2 * std::uint64_t(idx.size()),
                           std::uint64_t(idx.size()) * sizeof(double));
  return e;
}

double EnergyEvaluator::measure_all(const sim::Mps& state) const {
  if (mode_ != MeasurementMode::kDirect)
    return reduce_terms(state, all_terms_, /*parallel_sweep=*/false);
  return state.sweep_mpo(mpo_).real();
}

double EnergyEvaluator::measure_direct(const std::vector<double>& params,
                                       const std::vector<std::size_t>* idx,
                                       bool iterate) const {
  // A full evaluation of an iterate reads the kept slot and refills it; a
  // subset of the terms or a finite-difference point keeps nothing.
  const std::shared_ptr<const PreparedState> prepared =
      !idx && iterate ? kept_or_prepared(params)
                      : std::make_shared<const PreparedState>(
                            PreparedState{params, prepare(params), {}});
  const sim::Mps& state = prepared->psi;
  if (iterate)
    last_truncation_error_.store(state.truncation_error(),
                                 std::memory_order_relaxed);
  OBS_SPAN("vqe/measure");
  return idx ? reduce_terms(state, *idx, /*parallel_sweep=*/true)
             : measure_all(state);
}

double EnergyEvaluator::measure_hadamard(const std::vector<double>& params,
                                         const std::vector<std::size_t>& idx,
                                         bool iterate) const {
  std::vector<double> contrib(idx.size());
  std::vector<double> trunc(idx.size(), 0.0);
  auto eval_one = [&](std::size_t j) {
    const std::size_t k = idx[j];
    OBS_SPAN("vqe/pauli_circuit");
    double re;
    if (storage_ == CircuitStorage::kStoreAll) {
      // Bind and run the pre-built full circuit (ansatz replica per string).
      const circ::Circuit bound = bind_parameters(stored_circuits_[k], params);
      sim::Mps state(bound.n_qubits(), mps_options_);
      state.run(bound, {});
      pauli::PauliString z(std::size_t(bound.n_qubits()));
      z.set(std::size_t(bound.n_qubits()) - 1, pauli::P::Z);
      re = state.expectation(z).real();
      trunc[j] = state.truncation_error();
    } else {
      re = sim::hadamard_test_mps(ansatz_, params, terms_[k].first,
                                  mps_options_, &trunc[j]);
    }
    contrib[j] = terms_[k].second.real() * re;
  };
  // Every string is a full circuit run; costs still follow the shared
  // support model.
  deal_lpt(
      par::resolve_threads(mps_options_.parallel), idx.size(),
      [&](std::size_t j) { return pauli::support_cost(terms_[idx[j]].first); },
      [&](const std::vector<std::size_t>& items) {
        for (std::size_t j : items) eval_one(j);
      });
  // Worst truncation across the swept circuits — deterministic for any
  // thread count, unlike "whichever circuit ran last".
  if (iterate) {
    double worst = 0.0;
    for (double t : trunc) worst = std::max(worst, t);
    last_truncation_error_.store(worst, std::memory_order_relaxed);
  }
  double e = 0;
  for (double c : contrib) e += c;
  return e;
}

}  // namespace q2::vqe
