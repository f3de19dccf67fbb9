// What the density-matrix simulator is for: studying how hardware noise
// erodes a VQE result before running it on a real device (the paper's stated
// motivation for classical simulation of near-term experiments). Optimizes
// H2 noiselessly, then re-evaluates the optimal circuit under increasing
// depolarizing noise after every two-qubit gate.
//
//   ./noise_study [--trace=FILE] [--report=FILE] [--metrics=FILE]
#include <cstdio>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "circuit/routing.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_options.hpp"
#include "sim/densitymatrix.hpp"
#include "vqe/vqe_driver.hpp"

int main(int argc, char** argv) try {
  using namespace q2;
  obs::configure_from_args(argc, argv);
  par::configure_threads_from_args(argc, argv);
  const chem::Molecule mol = chem::Molecule::h2(1.4);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(mo);
  const chem::FciResult fci = chem::fci_ground_state(mo, 1, 1);

  // Noiseless optimization first.
  vqe::VqeOptions opts;
  opts.optimizer.max_iterations = 60;
  const vqe::VqeResult vqe = vqe::run_vqe(mo, 1, 1, opts);
  std::printf("Noiseless VQE: %+.8f Ha (FCI %+.8f, HF %+.8f)\n\n", vqe.energy,
              fci.energy, scf.energy);

  const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(mo.n_orbitals(), 1, 1);
  const circ::Circuit routed = circ::route_to_nearest_neighbour(ansatz.circuit);

  std::printf("%-12s %-16s %-14s %-10s\n", "p(depol)", "E(noisy)",
              "E - E(FCI)", "purity");
  for (double p : {0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2}) {
    sim::DensityMatrix dm(routed.n_qubits());
    for (const auto& g : routed.gates()) {
      dm.apply(g, vqe.parameters);
      if (g.is_two_qubit() && p > 0) {
        dm.apply_depolarizing(g.qubits[0], p);
        dm.apply_depolarizing(g.qubits[1], p);
      }
    }
    const double e = dm.expectation(h).real();
    std::printf("%-12.1e %-+16.8f %-+14.2e %-10.4f\n", p, e, e - fci.energy,
                dm.purity());
  }
  std::printf(
      "\nThe error floor set by gate noise is what a hardware VQE would see;"
      " chemical\naccuracy (1.6e-03 Ha) survives only below a per-gate error"
      " rate of ~1e-4, which\nis why the paper argues for classical"
      " cross-verification of 100-qubit VQE runs.\n");
  return 0;
} catch (const q2::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
