// Trotterized unitary coupled-cluster ansatz (Eq. 3-4), compiled to the
// parametric circuit of Fig. 5: a Hartree-Fock preparation followed by
// exp(i theta c_k P_k) factors whose RZ angles bind to the parameter vector.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/jordan_wigner.hpp"

namespace q2::vqe {

struct Excitation {
  std::vector<std::size_t> from;  ///< occupied spin orbitals (annihilated)
  std::vector<std::size_t> to;    ///< virtual spin orbitals (created)
};

struct UccsdAnsatz {
  int n_qubits = 0;
  int n_electrons = 0;
  std::size_t n_parameters = 0;
  circ::Circuit circuit;  ///< HF prep + parametric UCC factors
  std::vector<Excitation> excitations;
};

struct UccsdOptions {
  int trotter_steps = 1;
  /// Distance truncation (Fig. 10 regime): a double excitation is kept only
  /// if max spatial-orbital distance among its indices <= window; -1 = full.
  int distance_window = -1;
  /// Local generalized ansatz: orbital-neighbourhood excitations a+_p a_q
  /// and pair doubles for |p - q| <= distance_window, regardless of the
  /// occupied/virtual split. This is the fixed-depth-per-qubit circuit of
  /// the paper's large-chain runs (localized-orbital regime); parameter and
  /// gate counts are O(n) instead of O(n^4).
  bool local_generalized = false;
};

/// Closed-shell UCCSD over `n_spatial` orbitals with n_alpha = n_beta
/// occupied orbitals per spin. Spin-orbital q = 2p + sigma maps to qubit q.
UccsdAnsatz build_uccsd(std::size_t n_spatial, int n_alpha, int n_beta,
                        const UccsdOptions& options = {});

/// Classical MP2-style starting amplitudes are out of scope; this returns a
/// deterministic small perturbation that breaks the HF stationary point.
std::vector<double> initial_parameters(const UccsdAnsatz& ansatz,
                                       double scale = 1e-2);

}  // namespace q2::vqe
