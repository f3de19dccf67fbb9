// Measurement-reduction extension bench: qubit-wise commuting grouping of
// the Hamiltonian's Pauli strings (§III-D future-work territory — fewer
// basis settings means fewer circuits on hardware). Reports the raw circuit
// count vs the grouped count for molecules of growing size, then measures
// the direct MPS energy on H4 and H10 one sweep per term and through the
// measurement MPO: sweeps and environment updates per evaluation,
// milliseconds per evaluation on one thread, and the MPO's agreement with
// the per-term energy.
#include <algorithm>
#include <cmath>
#include <numeric>

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

  // The MPS direct measurement shares work by another rule: the MPO
  // measures the whole sum in one environment sweep, sharing the strings'
  // prefixes and suffixes. It agrees with the per-term sum to rounding.
  struct Chain {
    const char* name;
    int atoms;
    int window;  // UCCSD distance window, -1 = full
    std::size_t max_bond;
  };
  const Chain chains[] = {{"H4", 4, -1, 32}, {"H10, window 2", 10, 2, 16}};
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
    const vqe::EnergyEvaluator eval(ansatz.circuit, h, opts);
    std::vector<std::size_t> all(eval.n_terms());
    std::iota(all.begin(), all.end(), std::size_t{0});
    // Mode 0 measures term by term, mode 1 through the MPO.
    const char* const modes[] = {"per-term", "MPO"};
    auto energy = [&](std::size_t m) {
      return m == 0 ? eval.constant_term() + eval.partial_energy(params, all)
                    : eval.energy(params);
    };

    bench::row({"mode", "sweeps", "updates", "eval ms", "energy"});
    std::uint64_t n_sweeps[2] = {}, n_updates[2] = {};
    double energies[2] = {}, eval_ms[2] = {};
    for (std::size_t m = 0; m < 2; ++m) {
      const std::uint64_t s0 = sweeps.value(), u0 = updates.value();
      double e = energy(m);
      n_sweeps[m] = sweeps.value() - s0;
      n_updates[m] = updates.value() - u0;
      // Best of five; an evaluation prepares the state and measures it.
      double best = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        Timer t;
        e = energy(m);
        best = std::min(best, t.seconds());
      }
      bench::row({modes[m], std::to_string(n_sweeps[m]),
                  std::to_string(n_updates[m]), bench::fmt(best * 1e3, 2),
                  bench::fmt(e, 12)});
      energies[m] = e;
      eval_ms[m] = best * 1e3;
    }
    const double diff = std::abs(energies[1] - energies[0]);
    std::printf("\n|MPO - per term| = %.3e Ha; an MPO evaluation takes %.2fx"
                " less time than a per-term evaluation\n",
                diff, eval_ms[0] / eval_ms[1]);
    if (!(diff <= 1e-10) || n_sweeps[1] != 1 || n_updates[1] >= n_updates[0]) {
      std::printf("FAIL: the MPO's energy differs from the per-term energy by"
                  " %.3e Ha, or it took %llu sweeps and %llu updates against"
                  " %llu per-term transfers\n",
                  diff, (unsigned long long)n_sweeps[1],
                  (unsigned long long)n_updates[1],
                  (unsigned long long)n_updates[0]);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
