// Hydrogen-chain MPS-VQE: the paper's core workload at laptop scale. Runs a
// UCCSD VQE on an H_n chain through the MPS engine, reporting the bond
// dimension, the monitored truncation error and the distributed-execution
// path (gradient entries dealt over simulated MPI ranks).
//
//   ./hydrogen_chain [n_atoms] [spacing_bohr]
//                    [--trace=FILE] [--report=FILE] [--metrics=FILE]
//                    [--checkpoint=PATH [--checkpoint-every=N] [--resume]]
//
// With --checkpoint= the optimizer state is snapshotted to PATH.NNNNNN every
// N iterations (default 1); kill the run at any point and restart with
// --resume appended to continue mid-optimization — the resumed final energy
// is bit-identical to an uninterrupted run. Env: Q2_CHECKPOINT,
// Q2_CHECKPOINT_EVERY, Q2_RESUME=1.
#include <cstdio>
#include <cstdlib>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "circuit/reorder.hpp"
#include "ckpt/checkpoint.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_options.hpp"
#include "parallel/comm.hpp"
#include "sim/mps.hpp"
#include "vqe/vqe_driver.hpp"

int main(int argc, char** argv) {
  using namespace q2;
  obs::configure_from_args(argc, argv);
  par::configure_threads_from_args(argc, argv);
  const ckpt::CheckpointOptions checkpoint = ckpt::options_from_args(argc, argv);
  const int n = argc > 1 ? std::atoi(argv[1]) : 4;
  const double spacing = argc > 2 ? std::atof(argv[2]) : 1.8;
  if (n % 2 != 0 || n < 2) {
    std::fprintf(stderr, "need an even, positive atom count\n");
    return 1;
  }

  std::printf("MPS-VQE on the H%d chain (spacing %.2f bohr, STO-3G)\n\n", n,
              spacing);
  const chem::Molecule mol = chem::Molecule::hydrogen_chain(n, spacing);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  std::printf("RHF energy: %+.8f Ha\n", scf.energy);

  // Inspect the compiled circuit the MPS engine will execute: the lazy
  // reorder pass materializes only the SWAPs a gate actually needs and
  // leaves the residual qubit permutation to the measurement step.
  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(mo.n_orbitals(), n / 2, n / 2);
  const circ::CompiledCircuit compiled = circ::compile_for_mps(ansatz.circuit);
  std::printf("UCCSD ansatz: %zu parameters, %zu gates -> %zu compiled"
              " (%zu two-qubit)\n",
              ansatz.n_parameters, ansatz.circuit.size(),
              compiled.gates.size(), compiled.gates.two_qubit_gate_count());
  std::printf("Lazy reorder: %zu SWAPs materialized, %zu elided (eager router"
              " would pay %zu), %zu gates fused\n",
              compiled.stats.swaps_materialized, compiled.stats.swaps_elided,
              compiled.stats.swaps_eager, compiled.stats.gates_fused);

  // Distributed VQE over 4 simulated MPI ranks (paper level 2): each rank
  // owns a share of the gradient entries.
  vqe::VqeOptions opts;
  opts.optimizer.max_iterations = n <= 4 ? 60 : 25;
  opts.mps.max_bond = 32;
  opts.checkpoint = checkpoint;
  if (checkpoint.enabled())
    std::printf("Checkpointing to %s.NNNNNN every %d iteration(s)%s\n",
                checkpoint.path.c_str(), checkpoint.every_n_iterations,
                checkpoint.resume ? ", resuming if a valid snapshot exists"
                                  : "");
  double energy = 0;
  std::uint64_t comm_bytes = 0;
  int iterations = 0;
  par::World world(4);
  world.run([&](par::Comm& comm) {
    const vqe::VqeResult r =
        vqe::run_vqe_distributed(mo, n / 2, n / 2, opts, comm);
    if (comm.rank() == 0) {
      energy = r.energy;
      iterations = r.iterations;
    }
    comm.barrier();
    if (comm.rank() == 0) comm_bytes = comm.bytes_transferred();
  });
  std::printf("VQE energy: %+.8f Ha (%d iterations, 4 ranks, %llu bytes"
              " communicated on rank 0)\n",
              energy, iterations, (unsigned long long)comm_bytes);

  if (n <= 8) {
    const chem::FciResult fci = chem::fci_ground_state(mo, n / 2, n / 2);
    std::printf("FCI energy: %+.8f Ha  (VQE error %+.2e Ha)\n", fci.energy,
                energy - fci.energy);
  }

  // Show the state the optimizer found, through the MPS engine's eyes.
  sim::Mps state(int(2 * mo.n_orbitals()), opts.mps);
  const std::vector<double> params = vqe::initial_parameters(ansatz);
  state.run(ansatz.circuit, params);
  std::printf("\nMPS diagnostics at the initial point: max bond %zu, memory"
              " %zu bytes, truncation error %.2e\n",
              state.max_bond_dimension(), state.memory_bytes(),
              state.truncation_error());
  return 0;
}
