// The two-walk adjoint gradient, kept as the oracle for
// vqe::EnergyEvaluator::adjoint_gradient: prepare psi(x), build
// lambda = H|psi> / ||H|psi>||, then walk the compiled stream backwards once,
// applying every gate's adjoint to psi and to lambda, and read
// scale · 2 Re<lambda|(-i/2) G|psi> · ||H|psi>|| at each parametric rotation.
// The evaluator walks only lambda back and restores psi from its
// preparation's recording; the two agree to rounding. Built from public
// operations only: a compiled run, Mps::apply_mpo, Mps::apply_adjoint and
// sim::MpsOverlap.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "vqe/energy.hpp"

namespace q2::test {

inline std::vector<double> two_walk_adjoint_gradient(
    const vqe::EnergyEvaluator& eval, const sim::MpsOptions& options,
    const std::vector<double>& x) {
  const circ::CompiledCircuit& compiled = eval.compiled_ansatz();
  const std::vector<circ::Gate>& gates = compiled.gates.gates();
  sim::Mps psi(eval.ansatz().n_qubits(), options);
  psi.run(compiled, x);
  double norm = 0.0;
  sim::Mps lambda = psi.apply_mpo(eval.measurement_mpo(), norm);
  std::vector<double> g(eval.n_parameters(), 0.0);
  if (norm == 0.0) return g;
  std::size_t first = gates.size();
  for (std::size_t i = gates.size(); i-- > 0;)
    if (gates[i].is_parametric()) first = i;
  sim::MpsOverlap overlap(lambda, psi);
  for (std::size_t i = gates.size(); i-- > first;) {
    const circ::Gate& gate = gates[i];
    const bool two = gate.is_two_qubit();
    const int lo = two ? std::min(gate.qubits[0], gate.qubits[1])
                       : gate.qubits[0];
    if (gate.is_parametric()) {
      constexpr cplx kZero{}, kHalf{0.5, 0.0}, kHalfI{0.0, 0.5};
      std::array<cplx, 4> op{};
      switch (gate.kind) {
        case circ::GateKind::kRx: op = {kZero, -kHalfI, -kHalfI, kZero}; break;
        case circ::GateKind::kRy: op = {kZero, -kHalf, kHalf, kZero}; break;
        case circ::GateKind::kRz: op = {-kHalfI, kZero, kZero, kHalfI}; break;
        default: throw Error("two_walk_adjoint_gradient: not a rotation");
      }
      g[std::size_t(gate.param_index)] +=
          gate.param_scale * 2 * overlap.local(lo, op).real() * norm;
    }
    if (i == first) break;
    psi.apply_adjoint(gate, x);
    lambda.apply_adjoint(gate, x);
    overlap.touched(lo, two ? lo + 1 : lo);
  }
  return g;
}

}  // namespace q2::test
