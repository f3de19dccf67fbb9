// Measurement-reduction extension bench: qubit-wise commuting grouping of
// the Hamiltonian's Pauli strings (§III-D future-work territory — fewer
// basis settings means fewer circuits on hardware). Reports the raw circuit
// count vs the grouped count for molecules of growing size, then measures
// the direct MPS energy on H4 and H10 with the prefix-shared plan and with
// the measurement MPO (H4 also one sweep per term): sweeps and environment
// updates per evaluation, milliseconds per evaluation on one thread, the
// plan's bit-identity to the per-term sweep and the MPO's agreement with
// the plan.
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"
#include "pauli/grouping.hpp"
#include "vqe/energy.hpp"
#include "vqe/uccsd.hpp"

int main(int argc, char** argv) {
  using namespace q2;
  bench::init(argc, argv);
  bench::header("Extension: qubit-wise commuting measurement grouping");
  bench::row({"system", "qubits", "Pauli strings", "groups", "reduction"});

  struct Case {
    const char* name;
    chem::Molecule mol;
  };
  const Case cases[] = {
      {"H2", chem::Molecule::h2(1.4)},
      {"H4", chem::Molecule::hydrogen_chain(4, 1.8)},
      {"(H2)3", chem::Molecule::h2_trimer()},
      {"LiH", chem::Molecule::lih()},
      {"H2O", chem::Molecule::h2o()},
  };
  for (const Case& c : cases) {
    const bench::SolvedMolecule s = bench::solve(c.mol);
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    std::vector<pauli::PauliString> terms;
    for (const auto& [p, coeff] : h.sorted_terms()) terms.push_back(p);
    const auto groups = pauli::group_qubitwise_commuting(terms);
    const std::size_t strings = h.size() - 1;  // identity needs no circuit
    bench::row({c.name, std::to_string(h.n_qubits()), std::to_string(strings),
                std::to_string(groups.size()),
                bench::fmt(double(strings) / double(groups.size()), 1) + "x"});
  }
  std::printf(
      "\nEach group is measurable in one basis setting, so the grouped count"
      " is the number\nof distinct measurement circuits a hardware VQE (or"
      " the level-2 distribution)\nactually needs.\n");

  // The MPS direct measurement shares work by other rules. The plan sweeps
  // the terms sorted by start site and Pauli letters, each transfer shared
  // by every term with the same leading letters, and reduces in fixed term
  // order, so its energy is bit-identical to one sweep per term. The MPO
  // measures the whole sum in one environment sweep, sharing suffixes as
  // well as prefixes; it agrees with the plan to rounding.
  struct Chain {
    const char* name;
    int atoms;
    int window;  // UCCSD distance window, -1 = full
    std::size_t max_bond;
    bool per_term;  // also measure one sweep per term
  };
  const Chain chains[] = {{"H4", 4, -1, 32, true},
                          {"H10, window 2", 10, 2, 16, false}};
  struct Mode {
    const char* name;
    vqe::TermGrouping grouping;
  };
  obs::Counter& sweeps = obs::Registry::global().counter("mps.transfer_sweeps");
  obs::Counter& updates =
      obs::Registry::global().counter("mps.transfer_site_ops");
  bool ok = true;
  for (const Chain& chain : chains) {
    bench::header(std::string("Direct measurement on the MPS (") + chain.name +
                  ", STO-3G UCCSD, 1 thread)");
    const bench::SolvedMolecule s =
        bench::solve(chem::Molecule::hydrogen_chain(chain.atoms, 1.8));
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    vqe::UccsdOptions ansatz_options;
    ansatz_options.distance_window = chain.window;
    const vqe::UccsdAnsatz ansatz =
        vqe::build_uccsd(s.mo.n_orbitals(), chain.atoms / 2, chain.atoms / 2,
                         ansatz_options);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);

    sim::MpsOptions opts;
    opts.max_bond = chain.max_bond;
    opts.parallel.n_threads = 1;
    std::vector<Mode> modes;
    if (chain.per_term) modes.push_back({"per-term", vqe::TermGrouping::kNone});
    modes.push_back({"plan", vqe::TermGrouping::kCommuting});
    modes.push_back({"MPO", vqe::TermGrouping::kMpo});

    bench::row({"mode", "sweeps", "updates", "eval ms", "energy"});
    std::vector<double> energies, eval_ms;
    for (const Mode& m : modes) {
      const vqe::EnergyEvaluator eval(
          ansatz.circuit, h, opts, vqe::MeasurementMode::kDirect,
          vqe::CircuitStorage::kMemoryEfficient, m.grouping);
      const std::uint64_t s0 = sweeps.value(), u0 = updates.value();
      double e = eval.energy(params);
      const std::uint64_t n_sweeps = sweeps.value() - s0;
      const std::uint64_t n_updates = updates.value() - u0;
      // Best of five; an evaluation prepares the state and measures it.
      double best = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        Timer t;
        e = eval.energy(params);
        best = std::min(best, t.seconds());
      }
      bench::row({m.name, std::to_string(n_sweeps), std::to_string(n_updates),
                  bench::fmt(best * 1e3, 2), bench::fmt(e, 12)});
      energies.push_back(e);
      eval_ms.push_back(best * 1e3);
    }
    const std::size_t plan = modes.size() - 2, mpo = modes.size() - 1;
    const double diff = std::abs(energies[mpo] - energies[plan]);
    std::printf("\n|MPO - plan| = %.3e Ha; an MPO evaluation takes %.2fx less"
                " time than a plan evaluation\n",
                diff, eval_ms[plan] / eval_ms[mpo]);
    if (chain.per_term && energies[0] != energies[plan]) {
      std::printf("FAIL: the plan's energy is not bit-identical to the"
                  " per-term sweep's\n");
      ok = false;
    }
    if (!(diff <= 1e-10)) {
      std::printf("FAIL: the MPO's energy differs from the plan's by %.3e Ha\n",
                  diff);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
