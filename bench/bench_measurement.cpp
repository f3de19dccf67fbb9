// Measurement-reduction extension bench: qubit-wise commuting grouping of
// the Hamiltonian's Pauli strings (§III-D future-work territory — fewer
// basis settings means fewer circuits on hardware). Reports the raw circuit
// count vs the grouped count for molecules of growing size, then executes
// the planned direct measurement on H4 and shows the transfer-sweep and
// transfer counters drop plus the bit-identity of the planned energy.
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

  // The MPS direct measurement shares work by a different rule: one sweep
  // per start site over terms sorted by their Pauli letters, each transfer
  // shared by every term with the same leading letters, and contributions
  // reduced in fixed term order so the energy stays bit-identical.
  bench::header("Planned direct measurement on the MPS (H4/STO-3G UCCSD)");
  {
    const bench::SolvedMolecule s =
        bench::solve(chem::Molecule::hydrogen_chain(4, 1.8));
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(s.mo);
    const vqe::UccsdAnsatz ansatz = vqe::build_uccsd(s.mo.n_orbitals(), 2, 2);
    const std::vector<double> params = vqe::initial_parameters(ansatz, 0.05);

    sim::MpsOptions opts;
    opts.max_bond = 32;
    const vqe::EnergyEvaluator flat(
        ansatz.circuit, h, opts, vqe::MeasurementMode::kDirect,
        vqe::CircuitStorage::kMemoryEfficient, vqe::TermGrouping::kNone);
    const vqe::EnergyEvaluator grouped(
        ansatz.circuit, h, opts, vqe::MeasurementMode::kDirect,
        vqe::CircuitStorage::kMemoryEfficient, vqe::TermGrouping::kCommuting);

    obs::Counter& sweeps =
        obs::Registry::global().counter("mps.transfer_sweeps");
    obs::Counter& transfers =
        obs::Registry::global().counter("mps.transfer_site_ops");
    const std::uint64_t s0 = sweeps.value(), t0 = transfers.value();
    Timer t_flat;
    const double e_flat = flat.energy(params);
    const double flat_s = t_flat.seconds();
    const std::uint64_t flat_sweeps = sweeps.value() - s0;
    const std::uint64_t flat_transfers = transfers.value() - t0;

    const std::uint64_t s1 = sweeps.value(), t1 = transfers.value();
    Timer t_grouped;
    const double e_grouped = grouped.energy(params);
    const double grouped_s = t_grouped.seconds();
    const std::uint64_t grouped_sweeps = sweeps.value() - s1;
    const std::uint64_t grouped_transfers = transfers.value() - t1;

    bench::row({"mode", "sweeps", "transfers", "measure s", "energy"});
    bench::row({"per-term", std::to_string(flat_sweeps),
                std::to_string(flat_transfers), bench::fmte(flat_s),
                bench::fmt(e_flat, 12)});
    bench::row({"plan", std::to_string(grouped_sweeps),
                std::to_string(grouped_transfers), bench::fmte(grouped_s),
                bench::fmt(e_grouped, 12)});
    const bool identical = e_flat == e_grouped;
    std::printf("\nplanned energy is %s (%.17g vs %.17g), %llu -> %llu"
                " transfers\n",
                identical ? "bit-identical" : "NOT BIT-IDENTICAL", e_grouped,
                e_flat, (unsigned long long)flat_transfers,
                (unsigned long long)grouped_transfers);
    if (!identical || grouped_transfers >= flat_transfers) {
      std::printf("FAIL\n");
      return 1;
    }
  }
  return 0;
}
