// Quickstart: the whole Q2Chemistry pipeline on the hydrogen molecule —
// integrals -> RHF -> qubit Hamiltonian (the 15 Pauli strings of Fig. 5) ->
// UCCSD MPS-VQE -> comparison against FCI.
//
//   ./quickstart [--trace=FILE] [--report=FILE] [--metrics=FILE]
//                [--profile=FILE] [--threads=N] [bond_length_bohr]
//
// --trace= writes a Chrome trace (open in chrome://tracing or Perfetto),
// --report= a JSONL run report with per-iteration VQE energies,
// --metrics= a JSON dump of the global counters, and --profile= a
// hierarchical call-tree profile with GFLOP/s and arithmetic-intensity
// roofline accounting (JSON tree to FILE, aligned table to stderr). The
// Q2_TRACE / Q2_REPORT / Q2_METRICS / Q2_PROFILE environment variables do
// the same.
#include <cstdio>
#include <cstdlib>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "common/log.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_options.hpp"
#include "vqe/vqe_driver.hpp"

int main(int argc, char** argv) try {
  using namespace q2;
  log::set_level(log::Level::kInfo);  // show where telemetry files land
  obs::configure_from_args(argc, argv);
  par::configure_threads_from_args(argc, argv);
  const double r = argc > 1 ? std::atof(argv[1]) : 1.4;

  std::printf("Q2Chemistry quickstart: H2 at R = %.3f bohr (STO-3G)\n\n", r);
  const chem::Molecule mol = chem::Molecule::h2(r);

  // 1. Integrals and the mean-field reference.
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  const chem::ScfResult scf = chem::rhf(mol, basis, ints);
  std::printf("RHF energy:        %+.8f Ha  (%d iterations)\n", scf.energy,
              scf.iterations);

  // 2. The qubit Hamiltonian (Jordan-Wigner).
  const chem::MoIntegrals mo =
      chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(mo);
  std::printf("Qubit Hamiltonian: %zu qubits, %zu Pauli strings\n",
              h.n_qubits(), h.size());
  std::printf("%s\n", h.str(6).c_str());

  // 3. MPS-VQE with the UCCSD ansatz.
  vqe::VqeOptions opts;
  opts.optimizer.max_iterations = 60;
  const vqe::VqeResult vqe = vqe::run_vqe(mo, 1, 1, opts);
  std::printf("VQE energy:        %+.8f Ha  (%d iterations, %zu parameters,"
              " %zu gates)\n",
              vqe.energy, vqe.iterations, vqe.n_parameters, vqe.circuit_gates);

  // 4. Exact answer for comparison.
  const chem::FciResult fci = chem::fci_ground_state(mo, 1, 1);
  std::printf("FCI energy:        %+.8f Ha\n", fci.energy);
  std::printf("\nVQE - FCI = %+.2e Ha (chemical accuracy is 1.6e-03)\n",
              vqe.energy - fci.energy);
  std::printf("Correlation energy recovered: %.2f %%\n",
              100.0 * (scf.energy - vqe.energy) / (scf.energy - fci.energy));
  return 0;
} catch (const q2::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
