// DMET-MPS-VQE on a hydrogen ring — the divide-and-conquer workflow of
// paper Fig. 3 end to end: RHF low level, 2-atom fragments, Schmidt baths,
// per-fragment VQE solves, chemical-potential check, energy assembly.
//
//   ./dmet_ring [n_atoms] [bond_bohr] [--fci]
//               [--trace=FILE] [--report=FILE] [--metrics=FILE]
//               [--checkpoint=PATH [--checkpoint-every=N] [--resume]]
//
// --checkpoint= snapshots the chemical-potential loop every N µ-evaluations;
// restart a killed run with --resume to continue the fit where it stopped,
// with the same fragment warm starts and bit-identical final energies. Env:
// Q2_CHECKPOINT / Q2_CHECKPOINT_EVERY / Q2_RESUME=1.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "chem/fci.hpp"
#include "ckpt/checkpoint.hpp"
#include "dmet/dmet_driver.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_options.hpp"

int main(int argc, char** argv) try {
  using namespace q2;
  obs::configure_from_args(argc, argv);
  par::configure_threads_from_args(argc, argv);
  const ckpt::CheckpointOptions checkpoint = ckpt::options_from_args(argc, argv);
  int n = 6;
  double bond = 1.8;
  bool use_fci_solver = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fci") == 0) {
      use_fci_solver = true;
    } else if (positional == 0) {
      n = std::atoi(argv[i]);
      ++positional;
    } else {
      bond = std::atof(argv[i]);
    }
  }

  std::printf("DMET on the H%d ring (bond %.2f bohr), %s fragment solver\n\n",
              n, bond, use_fci_solver ? "FCI" : "MPS-VQE");
  const chem::Molecule mol = chem::Molecule::hydrogen_ring(n, bond);

  dmet::DmetOptions opts;
  opts.fragments = dmet::uniform_atom_groups(std::size_t(n), 2);
  opts.fit_chemical_potential = use_fci_solver;  // VQE run: mu = 0 by symmetry
  opts.checkpoint = checkpoint;
  if (checkpoint.enabled())
    std::printf("Checkpointing µ-loop to %s.NNNNNN every %d evaluation(s)%s\n",
                checkpoint.path.c_str(), checkpoint.every_n_iterations,
                checkpoint.resume ? ", resuming if a valid snapshot exists"
                                  : "");

  vqe::VqeOptions vqe_opts;
  vqe_opts.optimizer.max_iterations = 25;
  vqe_opts.mps.max_bond = 16;
  const dmet::FragmentSolver solver = use_fci_solver
                                          ? dmet::make_fci_solver()
                                          : dmet::make_vqe_solver(vqe_opts);

  const dmet::DmetResult r = dmet::run_dmet(mol, opts, solver);

  std::printf("HF energy:    %+.8f Ha\n", r.hf_energy);
  std::printf("DMET energy:  %+.8f Ha  (mu = %+.4f after %d evaluations)\n",
              r.energy, r.mu, r.mu_iterations);
  std::printf("Electrons:    %.4f (target %d)\n", r.total_electrons, n);
  std::printf("\nPer-fragment breakdown:\n");
  for (std::size_t f = 0; f < r.fragment_energies.size(); ++f)
    std::printf("  fragment %zu: E = %+.6f Ha, n_elec = %.4f\n", f,
                r.fragment_energies[f], r.fragment_electrons[f]);

  if (n <= 10) {
    const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
    const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
    const chem::ScfResult scf = chem::rhf(mol, basis, ints);
    const chem::MoIntegrals mo =
        chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
    const chem::FciResult fci = chem::fci_ground_state(mo, n / 2, n / 2);
    std::printf("\nFCI energy:   %+.8f Ha\n", fci.energy);
    std::printf("DMET error:   %+.2e Ha (%.3f %% relative — paper Fig. 7a"
                " criterion: < 0.5 %%)\n",
                r.energy - fci.energy,
                100.0 * std::abs((r.energy - fci.energy) / fci.energy));
  }
  return 0;
} catch (const q2::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
