// The DMET driver (Fig. 3): RHF low-level calculation, fragmentation, bath
// construction, high-level fragment solves (FCI or MPS-VQE), and the global
// chemical-potential fit matching the summed fragment electron count to the
// molecule: µ = 0, a one-sided bracket toward the root, then Illinois
// (safeguarded regula falsi) steps, with every fragment VQE warm-started from
// that fragment's optimum at the nearest µ already evaluated.
// run_dmet_distributed adds the first parallelization level: fragments are
// dealt to sub-communicators (embarrassingly parallel, one allgather of the
// fragment results per sweep — §IV-C).
#pragma once

#include <functional>

#include "chem/molecule.hpp"
#include "ckpt/checkpoint.hpp"
#include "dmet/embedding.hpp"
#include "parallel/comm.hpp"
#include "vqe/vqe_driver.hpp"

namespace q2::dmet {

struct FragmentSolution {
  double energy = 0.0;     ///< fragment energy E_x
  double electrons = 0.0;  ///< fragment-orbital electron count N_x
  /// The solver's optimum (VQE parameters; empty for FCI). The driver hands
  /// it back as EmbeddingProblem::initial_parameters at the next µ.
  std::vector<double> parameters;
};

/// Solves one embedding problem (already mu-shifted) and evaluates the
/// fragment energy/electron count. A variational solver starts from
/// problem.initial_parameters when it is not empty.
using FragmentSolver = std::function<FragmentSolution(
    const EmbeddingProblem& problem, const chem::MoIntegrals& solver_mo)>;

/// Exact diagonalization fragment solver (the validation reference).
FragmentSolver make_fci_solver();
/// MPS-VQE fragment solver — the paper's high-level method. Each solve
/// starts from problem.initial_parameters (options.initial_parameters is
/// replaced by it) and returns its optimum in FragmentSolution::parameters.
/// The fragment energy and electron count are measured on the state the
/// VQE's evaluator prepared at that optimum (EnergyEvaluator::state_at).
FragmentSolver make_vqe_solver(const vqe::VqeOptions& options);

struct DmetOptions {
  std::string basis = "sto-3g";
  /// Atom groups per fragment; empty = one fragment per atom.
  std::vector<std::vector<int>> fragments;
  double bath_threshold = 1e-8;
  bool fit_chemical_potential = true;
  /// All fragments are symmetry-equivalent (rings, chains of identical
  /// units): solve fragment 0 once and replicate its solution.
  bool equivalent_fragments = false;
  double electron_tolerance = 1e-5;
  /// On-node parallelism across non-equivalent fragment solves (level 1 of
  /// the paper's hierarchy, folded onto the shared-memory pool). Fragment
  /// solves nest VQE term sweeps; the pool is nesting-safe. The µ-independent
  /// set-up runs on the same count: the integral passes of
  /// chem::compute_integrals, and every fragment's bath and embedding
  /// problem, each built into its own slot. Results are bit-identical at
  /// every count.
  par::ParallelOptions parallel;
  /// Durable snapshot/resume of the chemical-potential fit (src/ckpt). A
  /// snapshot is written every `every_n_iterations` µ-evaluations and holds
  /// the fit's phase and counters, the stored Illinois residuals and the end
  /// replaced last, and the last sweep and both bracket ends with their
  /// per-fragment solutions and warm-start parameters; an interrupted run
  /// restarted with the same options resumes mid-fit with the same warm
  /// starts and bit-identical final energies. Snapshots carry a layout
  /// version; one written by an older layout is rejected with an error.
  /// Leave the fragment solver's own VqeOptions::checkpoint disabled —
  /// concurrent fragment solves would fight over one snapshot family; DMET
  /// checkpoints at µ-loop granularity instead.
  ckpt::CheckpointOptions checkpoint;
};

struct DmetResult {
  bool converged = false;
  double energy = 0.0;     ///< total DMET energy (incl. nuclear repulsion)
  double hf_energy = 0.0;  ///< low-level reference
  double mu = 0.0;
  int mu_iterations = 0;
  double total_electrons = 0.0;  ///< summed fragment electron count at mu
  std::vector<double> fragment_energies;
  std::vector<double> fragment_electrons;
};

DmetResult run_dmet(const chem::Molecule& molecule, const DmetOptions& options,
                    const FragmentSolver& solver);

/// Level-1 parallel DMET: `comm` is split into one sub-communicator per
/// fragment batch; each group solves its fragments, and one allgather per
/// sweep hands every rank each fragment's energy, electron count and
/// optimum, so every rank holds the owners' bits and the whole warm-start
/// table. The result is bit-identical to run_dmet.
DmetResult run_dmet_distributed(const chem::Molecule& molecule,
                                const DmetOptions& options,
                                const FragmentSolver& solver, par::Comm& comm,
                                int groups);

}  // namespace q2::dmet
