// The complete MPS-VQE solver: UCCSD ansatz + energy evaluator + L-BFGS.
// Both drivers take the L-BFGS gradient from
// EnergyEvaluator::adjoint_gradient where the MPS is exact (one backward
// pass, the same on every rank), and otherwise from
// EnergyEvaluator::gradient, whose central differences replay only the
// circuit suffix each shifted parameter changes. run_vqe_on deals those
// entries over the pool workers; run_vqe_distributed deals them over the
// ranks of a (simulated) MPI communicator in direct mode, and keeps the
// paper's per-Pauli-string split (Fig. 4) in Hadamard-test mode, where
// every string is its own circuit.
#pragma once

#include "chem/mo.hpp"
#include "ckpt/checkpoint.hpp"
#include "parallel/comm.hpp"
#include "vqe/energy.hpp"
#include "vqe/optimizer.hpp"
#include "vqe/uccsd.hpp"

namespace q2::vqe {

/// The central-difference step of EnergyEvaluator::gradient where the
/// drivers cannot take the adjoint gradient.
inline constexpr double kGradientEps = 1e-5;

struct VqeOptions {
  sim::MpsOptions mps;
  UccsdOptions ansatz;
  OptimizerOptions optimizer;
  MeasurementMode measurement = MeasurementMode::kDirect;
  /// Starting point of the optimizer; empty means initial_parameters(ansatz).
  /// Must hold one finite entry per ansatz parameter (checked, never
  /// silently replaced). A resumed checkpoint takes precedence over it. The
  /// DMET driver sets it per fragment solve to warm-start each fragment VQE
  /// from its optimum at the nearest chemical potential already evaluated.
  std::vector<double> initial_parameters;
  /// Durable snapshot/resume of the optimizer loop (src/ckpt). When enabled,
  /// the full resumable L-BFGS state is written every `every_n_iterations`;
  /// an interrupted run restarted with the same options resumes
  /// mid-optimization and produces bit-identical final energy, parameters
  /// and iteration history. In a distributed run only rank 0 writes; every
  /// rank loads the same snapshot. Snapshots carry a layout version; one
  /// written by an older layout is rejected with an error.
  ckpt::CheckpointOptions checkpoint;
};

struct VqeResult {
  bool converged = false;
  double energy = 0.0;
  int iterations = 0;
  std::vector<double> parameters;
  std::vector<double> history;
  std::size_t n_pauli_terms = 0;
  std::size_t n_parameters = 0;
  std::size_t circuit_gates = 0;
};

/// Serial MPS-VQE on a molecular (or embedding) Hamiltonian.
VqeResult run_vqe(const chem::MoIntegrals& mo, int n_alpha, int n_beta,
                  const VqeOptions& options = {});

/// VQE on a pre-built Hamiltonian/ansatz pair (used by benches).
VqeResult run_vqe_on(const pauli::QubitOperator& hamiltonian,
                     const UccsdAnsatz& ansatz, const VqeOptions& options);
/// The same on the caller's evaluator of ansatz.circuit, which then fixes
/// the MPS options and the measurement mode (options.mps and
/// options.measurement are not read). The evaluator outlives the run, so
/// the caller can measure the optimum on the state the run's last energy
/// evaluation kept (EnergyEvaluator::state_at), as the DMET fragment
/// solver does.
VqeResult run_vqe_on(const EnergyEvaluator& evaluator,
                     const UccsdAnsatz& ansatz, const VqeOptions& options);

/// Level-2-parallel VQE: every rank of `comm` executes the same optimizer
/// trajectory. Direct mode: every rank evaluates the line-search energies
/// itself; where the adjoint gradient applies every rank computes it whole,
/// and otherwise each computes its gradient_share() of the central
/// differences, one allgather per gradient assembling the vector.
/// Hadamard-test mode: each energy evaluation is split over ranks by Pauli
/// string (LPT) and summed with Allreduce. In direct mode energy,
/// parameters and history are
/// bit-identical to run_vqe at any rank and thread count; in Hadamard-test
/// mode every rank holds the same bits (the Allreduce sums in rank order),
/// which match run_vqe to rounding.
VqeResult run_vqe_distributed(const chem::MoIntegrals& mo, int n_alpha,
                              int n_beta, const VqeOptions& options,
                              par::Comm& comm);

/// The central-difference gradient split over the ranks of `comm`: rank r
/// computes evaluator.gradient_share(r, size) and one allgather assembles
/// the entries. Every entry has one owner, so every rank holds the bits of
/// evaluator.gradient(x, eps). Collective: every rank must call it.
std::vector<double> distributed_gradient(const EnergyEvaluator& evaluator,
                                         const std::vector<double>& x,
                                         double eps, par::Comm& comm);

}  // namespace q2::vqe
