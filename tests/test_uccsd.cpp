// UCCSD ansatz tests: particle-number conservation, parameter binding,
// excitation bookkeeping, distance truncation, and Trotter-step scaling.
#include <gtest/gtest.h>

#include "pauli/jordan_wigner.hpp"
#include "sim/statevector.hpp"
#include "vqe/uccsd.hpp"

namespace q2::vqe {
namespace {

TEST(Uccsd, ExcitationCountsForH2) {
  // 2 spatial orbitals, 2 electrons: 2 spin-conserving singles + 1 double
  // (both electrons 0a0b -> 1a1b); aa/bb doubles are impossible.
  const UccsdAnsatz a = build_uccsd(2, 1, 1);
  EXPECT_EQ(a.n_qubits, 4);
  EXPECT_EQ(a.n_parameters, 3u);
}

TEST(Uccsd, SinglesOnlyAndDoublesOnly) {
  // Every excitation of the default ansatz is a single or a double, both
  // kinds occur, and there is one parameter per excitation.
  const UccsdAnsatz a = build_uccsd(3, 1, 1);
  std::size_t singles = 0, doubles = 0;
  for (const Excitation& ex : a.excitations) {
    EXPECT_EQ(ex.from.size(), ex.to.size());
    singles += ex.from.size() == 1;
    doubles += ex.from.size() == 2;
  }
  EXPECT_GT(singles, 0u);
  EXPECT_GT(doubles, 0u);
  EXPECT_EQ(singles + doubles, a.n_parameters);
}

TEST(Uccsd, StatePreservesParticleNumber) {
  const UccsdAnsatz a = build_uccsd(3, 1, 1);
  const std::vector<double> params = initial_parameters(a, 0.3);
  sim::StateVector sv(a.n_qubits);
  sv.run(a.circuit, params);
  pauli::QubitOperator n_op(std::size_t(a.n_qubits));
  for (std::size_t q = 0; q < std::size_t(a.n_qubits); ++q)
    n_op += pauli::jw_number(std::size_t(a.n_qubits), q);
  EXPECT_NEAR(sv.expectation(n_op).real(), 2.0, 1e-10);
  // Variance of N is zero: the state stays in the 2-electron sector.
  const pauli::QubitOperator n2 = n_op * n_op;
  EXPECT_NEAR(sv.expectation(n2).real(), 4.0, 1e-9);
}

TEST(Uccsd, ZeroParametersGiveHartreeFock) {
  const UccsdAnsatz a = build_uccsd(3, 1, 1);
  const std::vector<double> zeros(a.n_parameters, 0.0);
  sim::StateVector sv(a.n_qubits);
  sv.run(a.circuit, zeros);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0b000011]), 1.0, 1e-10);
}

TEST(Uccsd, CircuitIsUnitaryNormPreserving) {
  const UccsdAnsatz a = build_uccsd(2, 1, 1);
  const std::vector<double> params = initial_parameters(a, 0.7);
  sim::StateVector sv(a.n_qubits);
  sv.run(a.circuit, params);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-11);
}

TEST(Uccsd, DistanceWindowTruncatesDoubles) {
  const UccsdAnsatz full = build_uccsd(6, 3, 3);
  UccsdOptions opts;
  opts.distance_window = 2;
  const UccsdAnsatz local = build_uccsd(6, 3, 3, opts);
  EXPECT_LT(local.n_parameters, full.n_parameters);
  EXPECT_GT(local.n_parameters, 0u);
  for (const auto& ex : local.excitations) {
    int lo = 1 << 30, hi = -1;
    for (auto s : ex.from) {
      lo = std::min(lo, int(s / 2));
      hi = std::max(hi, int(s / 2));
    }
    for (auto s : ex.to) {
      lo = std::min(lo, int(s / 2));
      hi = std::max(hi, int(s / 2));
    }
    EXPECT_LE(hi - lo, 2);
  }
}

TEST(Uccsd, TrotterStepsPreserveSmallAngleState) {
  // For small parameters, 1-step and 2-step Trotterizations agree to O(t^2).
  const UccsdAnsatz one = build_uccsd(2, 1, 1);
  UccsdOptions two_opts;
  two_opts.trotter_steps = 2;
  const UccsdAnsatz two = build_uccsd(2, 1, 1, two_opts);
  const std::vector<double> params(one.n_parameters, 0.02);
  sim::StateVector a(one.n_qubits), b(two.n_qubits);
  a.run(one.circuit, params);
  b.run(two.circuit, params);
  cplx ov{};
  for (std::size_t i = 0; i < a.dim(); ++i)
    ov += std::conj(a.amplitudes()[i]) * b.amplitudes()[i];
  EXPECT_GT(std::abs(ov), 1.0 - 1e-6);
}

TEST(Uccsd, GateCountGrowsWithSystem) {
  const UccsdAnsatz small = build_uccsd(2, 1, 1);
  const UccsdAnsatz large = build_uccsd(4, 2, 2);
  EXPECT_GT(large.circuit.size(), small.circuit.size());
  EXPECT_GT(large.circuit.two_qubit_gate_count(), 0u);
}

TEST(Uccsd, OpenShellRejected) {
  EXPECT_THROW(build_uccsd(3, 2, 1), Error);
}

}  // namespace
}  // namespace q2::vqe
