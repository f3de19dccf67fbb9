// The VQE energy evaluator: prepares |psi(theta)> and measures
// E = sum_k c_k <P_k>. Every |psi(theta)> it prepares runs one parametric
// ansatz replica, compiled once, with each call's parameters bound at run
// time (the memory-efficient scheme of Fig. 9). Two measurement paths
// (direct: one sweep of the Hamiltonian's exact MPO on the prepared MPS, or
// one Hadamard-test circuit per string — the hardware-faithful mode of
// Fig. 5, which can also store every string's circuit, the baseline Fig. 9
// compares against). Three gradients: the adjoint pass where the MPS is
// exact, central differences everywhere (what the drivers fall back to), and
// the parameter-shift rule (the exact reference the other two are tested
// against).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "circuit/reorder.hpp"
#include "pauli/measurement_mpo.hpp"
#include "pauli/qubit_operator.hpp"
#include "sim/mps.hpp"

namespace q2::vqe {

enum class MeasurementMode {
  kDirect,        ///< fast path: expectation values on one prepared MPS
  kHadamardTest,  ///< paper-faithful: one ancilla circuit per Pauli string
};

/// How Hadamard-test mode holds its per-string circuits (Fig. 9). Direct
/// mode measures the compiled replica's state and takes kMemoryEfficient
/// only.
enum class CircuitStorage {
  kStoreAll,         ///< one stored Hadamard-test circuit per string
  kMemoryEfficient,  ///< one parametric ansatz replica (paper's scheme)
};

class EnergyEvaluator {
 public:
  /// Throws q2::Error for kDirect with kStoreAll.
  EnergyEvaluator(circ::Circuit ansatz, pauli::QubitOperator hamiltonian,
                  sim::MpsOptions mps_options = {},
                  MeasurementMode mode = MeasurementMode::kDirect,
                  CircuitStorage storage = CircuitStorage::kMemoryEfficient);

  std::size_t n_terms() const { return terms_.size(); }
  std::size_t n_parameters() const { return ansatz_.parameter_count(); }
  /// The number of distinct circuits this evaluator represents (one per
  /// non-identity Pauli string, as in Fig. 5).
  std::size_t circuit_count() const { return terms_.size(); }
  /// Bytes held in stored circuits — the Fig. 9 memory axis.
  std::size_t stored_circuit_bytes() const;

  /// The full energy at `params`. Where the adjoint gradient can apply
  /// (the static cap test of adjoint_gradient), energy() reads and refills
  /// the evaluator's kept slot: the parameter bits, the MPS and the
  /// recording of the last point it (or adjoint_applies) prepared. At the
  /// kept point it measures the kept state instead of preparing it again;
  /// anywhere else it releases the kept state, then prepares and records
  /// psi(params), measures it and keeps it. A recording only copies
  /// tensors, so every energy keeps the bits of an unrecorded preparation.
  double energy(const std::vector<double>& params) const;
  /// Contribution of a subset of Pauli terms (the unit of level-2 work),
  /// measured term by term and reduced in the listed order. Throws on an
  /// index >= n_terms() or one listed twice. `iterate` = false
  /// marks an evaluation made only to differentiate (a finite-difference
  /// point): it leaves last_truncation_error() alone.
  double partial_energy(const std::vector<double>& params,
                        const std::vector<std::size_t>& term_indices,
                        bool iterate = true) const;

  /// Central-difference gradient over the parameters in `owned`: entry k is
  /// (E(x + eps e_k) - E(x - eps e_k)) / (2 eps), every other entry is 0.0.
  /// Throws on a parameter >= n_parameters() or one listed twice (two
  /// workers would write its entry). The shifted points never touch the
  /// kept slot. The VQE drivers take it where adjoint_gradient() returns
  /// nothing.
  /// Byte-identical to finite_difference_gradient over energy(), at any
  /// thread count and for any split of the parameters into owned subsets —
  /// so ranks that each compute a share assemble the serial gradient.
  ///
  /// In direct mode the owned parameters are dealt round-robin, in
  /// first-gate order, over the pool workers. Each worker makes one forward
  /// sweep: it advances a base MPS along the compiled stream to a
  /// parameter's first gate, copies it, and replays only the suffix at
  /// x +- eps e_k (a shift changes no gate before that one). A worker holds
  /// at most two MPS. The term sweep inside each evaluation is serial.
  /// Hadamard-test mode evaluates each owned entry with two full Hadamard
  /// energies.
  std::vector<double> gradient(const std::vector<double>& x, double eps,
                               const std::vector<std::size_t>& owned) const;
  /// gradient() over every parameter.
  std::vector<double> gradient(const std::vector<double>& x,
                               double eps) const;
  /// The parameters worker `worker` of `n_workers` owns when a gradient is
  /// dealt round-robin in first-gate order — the split gradient() uses over
  /// pool workers and distributed VQE uses over ranks.
  std::vector<std::size_t> gradient_share(std::size_t worker,
                                          std::size_t n_workers) const;

  /// The truncation error (sim::Mps::truncation_error) a preparation may
  /// have and still count as exact for adjoint_gradient. At the default
  /// svd_cutoff (1e-12 · s_max) an exact-bond H4 preparation reads 7e-30 to
  /// 2e-25, and at most 1 248 · 16 · 1e-24 ≈ 2e-20. A discarded weight of
  /// 1e-20 moves the state by about 1e-10 per truncating update, the size
  /// of central differences' own error at eps = 1e-5 (DESIGN.md "Adjoint
  /// gradient").
  static constexpr double kAdjointTruncationBound = 1e-20;

  /// The exact gradient by one backward pass (Jones & Gacon, arXiv:2009.02823)
  /// where the MPS is exact, else nullopt. It needs direct mode with a bond
  /// cap that cannot bind (max_bond >= 2^floor(n/2)) and a
  /// preparation of psi(x) that discards at most kAdjointTruncationBound.
  /// Then lambda = sum_k c_k P_k |psi> comes from the measurement MPO
  /// (sim::Mps::apply_mpo), and the pass walks the compiled stream
  /// backwards once, applying each gate's adjoint to lambda; at each
  /// parametric rotation exp(-i theta G / 2), theta = scale · x_k, it
  /// restores psi to its state after that rotation from the preparation's
  /// recording (sim::MpsRecording) and adds scale · 2 Re<lambda|(-i/2) G|psi>
  /// to entry k. Where the energy was just evaluated at x (x's bits equal
  /// the kept point's, by memcmp), as L-BFGS always asks, the walk restores
  /// a copy of the kept state from the kept recording, and the gradient
  /// costs one preparation's worth of two-site updates, lambda's walk.
  /// Anywhere else it records psi(x) itself, keeps nothing, and costs two.
  /// Either way the cost does not grow with the parameter count, and the
  /// exactness test applies to a kept state as to a fresh one. Serial (the
  /// GEMMs follow the evaluator's thread count), so the bits are the same at
  /// every thread count, on every rank and from a kept or a fresh state.
  /// Counted in vqe.adjoint_gradients; spans vqe/adjoint_gradient and,
  /// inside it, vqe/adjoint_lambda.
  std::optional<std::vector<double>> adjoint_gradient(
      const std::vector<double>& x) const;
  /// Whether adjoint_gradient(x) returns a gradient. When the static
  /// conditions hold it reads the kept state at x, or records psi(x) once
  /// and keeps it, so the energy and gradient that follow at x prepare
  /// nothing more; otherwise it prepares nothing.
  bool adjoint_applies(const std::vector<double>& x) const;
  /// psi(x) to measure: a copy of the kept state when x's bits equal the
  /// kept point's, else one preparation along the compiled stream, in either
  /// measurement mode; it carries the stream's output permutation. Fills no
  /// slot. The DMET fragment solver measures its observables on it, so they
  /// are read from the state its VQE optimized.
  sim::Mps state_at(const std::vector<double>& x) const;

  /// Exact gradient via the parameter-shift rule: every occurrence of a
  /// parameter is an exp(-i phi/2 P) rotation, so dE/dphi =
  /// (E(phi + pi/2) - E(phi - pi/2)) / 2 per occurrence, chain-ruled through
  /// the occurrence's scale. This is what differentiation costs on hardware
  /// (two circuit evaluations per rotation); the drivers here use
  /// adjoint_gradient() or central differences, and this stays as the exact
  /// reference they are tested against. The occurrences share prefixes of
  /// the compiled stream the same way gradient() does: one forward sweep per
  /// pool worker, each shifted evaluation replaying only the suffix from its
  /// own gate, measured term by term in Hadamard-test mode.
  std::vector<double> parameter_shift_gradient(
      const std::vector<double>& params) const;

  /// Per-term cost estimates (for LPT load balancing across ranks).
  std::vector<double> term_costs() const;

  /// MPS truncation error of the most recent evaluation of an iterate
  /// (energy(), or partial_energy() with `iterate` set): the prepared
  /// state's accumulated error in direct mode, the worst error across the
  /// swept per-string circuits in Hadamard-test mode (deterministic for any
  /// thread count; in a distributed Hadamard-test run, the rank's own share
  /// of strings). Gradient evaluations never overwrite it, so run reports
  /// attach the error of the iterate itself to each VQE iteration.
  double last_truncation_error() const {
    return last_truncation_error_.load(std::memory_order_relaxed);
  }

  const circ::Circuit& ansatz() const { return ansatz_; }
  const std::vector<std::pair<pauli::PauliString, cplx>>& terms() const {
    return terms_;
  }
  double constant_term() const { return constant_; }

  /// Exact environment updates one full evaluation makes: the MPO's
  /// (site, in-state) updates (0 in Hadamard-test mode). Also exported as
  /// the "vqe.transfers_per_evaluation" gauge.
  std::size_t transfers_per_evaluation() const { return mpo_.updates; }
  /// The measurement MPO (empty in Hadamard-test mode).
  const pauli::MeasurementMpo& measurement_mpo() const { return mpo_; }
  /// The compiled ansatz every preparation runs, in both measurement modes.
  const circ::CompiledCircuit& compiled_ansatz() const { return compiled_; }

 private:
  /// One evaluation over every term (idx null) or over the idx subset.
  double evaluate(const std::vector<double>& params,
                  const std::vector<std::size_t>* idx, bool iterate) const;
  double measure_direct(const std::vector<double>& params,
                        const std::vector<std::size_t>* idx,
                        bool iterate) const;
  double measure_hadamard(const std::vector<double>& params,
                          const std::vector<std::size_t>& idx,
                          bool iterate) const;
  /// Measures the idx-subset of terms on a prepared state, one expectation
  /// per term, and reduces contributions in idx order — bit-identical to
  /// the serial per-term sweep for every thread count. A parallel sweep
  /// deals the terms over the pool, longest first.
  double reduce_terms(const sim::Mps& state,
                      const std::vector<std::size_t>& idx,
                      bool parallel_sweep) const;
  /// Σ_k c_k <P_k> over every term on a prepared state: one MPO sweep in
  /// direct mode, a serial reduce_terms over all terms otherwise.
  double measure_all(const sim::Mps& state) const;

  /// A prepared state, the parameter bits it was prepared at and, where the
  /// static cap test holds, its recording. Immutable once built, so threads
  /// may read (and copy) one concurrently.
  struct PreparedState {
    std::vector<double> x;
    sim::Mps psi;
    sim::MpsRecording recording;  ///< empty unless recorded()
  };
  /// psi(x) run along the compiled stream.
  sim::Mps prepare(const std::vector<double>& x) const;
  /// psi(x) run along the compiled stream with its recording; only where
  /// the static cap test holds.
  std::shared_ptr<const PreparedState> recorded(
      const std::vector<double>& x) const;
  /// The kept state when its bits equal x's (memcmp), else null; always null
  /// where the static cap test fails, since nothing is kept there.
  std::shared_ptr<const PreparedState> kept_at(
      const std::vector<double>& x) const;
  /// The kept state at x, or else psi(x) prepared now and, where the static
  /// cap test holds, recorded and kept in place of the previous one, which
  /// is released first.
  std::shared_ptr<const PreparedState> kept_or_prepared(
      const std::vector<double>& x) const;

  circ::Circuit ansatz_;
  pauli::QubitOperator hamiltonian_;
  sim::MpsOptions mps_options_;
  MeasurementMode mode_;
  CircuitStorage storage_;
  std::vector<std::pair<pauli::PauliString, cplx>> terms_;
  double constant_ = 0.0;
  /// The compiled-once ansatz; parameters bind at run time, so
  /// energy/gradient calls never re-route.
  circ::CompiledCircuit compiled_;
  /// Direct mode with max_bond >= 2^floor(n/2): no cut of an n-qubit state
  /// needs more, so the cap never truncates.
  bool adjoint_exact_ = false;
  /// Exact MPO of Σ c_k P_k in the measured states' site order
  /// (compiled_.output_perm); built in direct mode only.
  pauli::MeasurementMpo mpo_;
  /// 0..n_terms()-1: the term list of a full energy evaluation.
  std::vector<std::size_t> all_terms_;
  /// Per parameter: index of its first gate in the compiled stream; the
  /// stream's size when no gate uses it.
  std::vector<std::size_t> first_gate_;
  /// Parameters sorted by first gate (ties by index): the order gradient
  /// shares are dealt in.
  std::vector<std::size_t> sweep_order_;
  /// Relaxed atomic: one evaluator may be shared by threads that each
  /// evaluate energies; any of their values is an equally valid report entry.
  mutable std::atomic<double> last_truncation_error_{0.0};
  /// The kept slot: the last point energy() or adjoint_applies() prepared,
  /// with its recording, filled only where the static cap test holds
  /// (adjoint_exact_). The mutex guards the pointer alone: a reader copies
  /// the pointer under it and compares bits, measures or copies the state
  /// outside it, and a writer empties the slot, records a state outside the
  /// lock and swaps it in, so an evaluator one thread uses holds at most
  /// one recording at a time. Threads
  /// sharing one evaluator may overwrite each other's point; a reader that
  /// misses prepares its own state, with the same bits.
  mutable std::mutex kept_mutex_;
  mutable std::shared_ptr<const PreparedState> kept_;
  /// kStoreAll: the full per-string Hadamard-test circuits, pre-built.
  std::vector<circ::Circuit> stored_circuits_;
};

}  // namespace q2::vqe
