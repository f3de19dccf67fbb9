// MPS engine tests — the heart of the reproduction. The state-vector
// simulator is the oracle: every circuit-level behaviour must agree exactly
// when the bond dimension is unconstrained, and truncation must behave as
// the paper describes (monitored, monotone in D).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "circuit/builder.hpp"
#include "circuit/reorder.hpp"
#include "circuit/routing.hpp"
#include "common/rng.hpp"
#include "sim/mps.hpp"
#include "sim/statevector.hpp"

namespace q2::sim {
namespace {

using circ::Circuit;
using pauli::PauliString;
using pauli::QubitOperator;

double fidelity(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  cplx ov{};
  for (std::size_t i = 0; i < a.size(); ++i) ov += std::conj(a[i]) * b[i];
  return std::abs(ov);
}

MpsOptions exact_opts(int n) {
  MpsOptions o;
  o.max_bond = std::size_t(1) << (n / 2 + 1);
  return o;
}

TEST(Mps, InitialStateIsVacuum) {
  Mps mps(4);
  EXPECT_NEAR(mps.norm(), 1.0, 1e-13);
  const auto sv = mps.to_statevector();
  EXPECT_NEAR(std::abs(sv[0]), 1.0, 1e-13);
  EXPECT_EQ(mps.max_bond_dimension(), 1u);
}

TEST(Mps, SingleQubitGates) {
  Mps mps(3);
  mps.apply(circ::make_h(1));
  const auto sv = mps.to_statevector();
  EXPECT_NEAR(std::abs(sv[0]), 1 / std::sqrt(2.0), 1e-13);
  EXPECT_NEAR(std::abs(sv[2]), 1 / std::sqrt(2.0), 1e-13);
}

TEST(Mps, BellStateExpectations) {
  Mps mps(2);
  mps.apply(circ::make_h(0));
  mps.apply(circ::make_cnot(0, 1));
  EXPECT_NEAR(mps.expectation(PauliString::parse(2, "Z0 Z1")).real(), 1.0,
              1e-12);
  EXPECT_NEAR(mps.expectation(PauliString::parse(2, "X0 X1")).real(), 1.0,
              1e-12);
  EXPECT_NEAR(mps.expectation(PauliString::parse(2, "Z0")).real(), 0.0, 1e-12);
  EXPECT_EQ(mps.bond_dimension(0), 2u);
}

class MpsVsStateVector : public ::testing::TestWithParam<int> {};

TEST_P(MpsVsStateVector, RandomBrickworkCircuit) {
  const int n = GetParam();
  Rng rng(1000 + n);
  const Circuit c = circ::brickwork_circuit(n, 4, rng);
  Mps mps(n, exact_opts(n));
  mps.run(c);
  StateVector sv(n);
  sv.run(c);
  EXPECT_GT(fidelity(mps.to_statevector(), sv.amplitudes()), 1.0 - 1e-10);
  EXPECT_LT(mps.truncation_error(), 1e-12);
  EXPECT_NEAR(mps.norm(), 1.0, 1e-10);
}

TEST_P(MpsVsStateVector, ExpectationValuesAgree) {
  const int n = GetParam();
  Rng rng(2000 + n);
  const Circuit c = circ::brickwork_circuit(n, 3, rng);
  Mps mps(n, exact_opts(n));
  mps.run(c);
  StateVector sv(n);
  sv.run(c);
  // A batch of random Pauli strings, including long Z-chains (JW-like).
  for (int trial = 0; trial < 12; ++trial) {
    PauliString p{std::size_t(n)};
    for (int q = 0; q < n; ++q)
      p.set(std::size_t(q), pauli::P(rng.index(4)));
    const cplx em = mps.expectation(p);
    const cplx es = sv.expectation(p);
    EXPECT_LT(std::abs(em - es), 1e-9) << p.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MpsVsStateVector,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10));

TEST(Mps, LongRangeGatesViaRouting) {
  Rng rng(7);
  Circuit c(6);
  c.append(circ::make_h(0));
  c.append(circ::make_cnot(0, 5));
  c.append(circ::make_cnot(5, 2));
  c.append(circ::make_cnot(2, 4));
  Mps mps(6, exact_opts(6));
  mps.run(c);  // routes internally
  StateVector sv(6);
  sv.run(c);
  EXPECT_GT(fidelity(mps.to_statevector(), sv.amplitudes()), 1.0 - 1e-10);
}

TEST(Mps, FromStatevectorRoundTrip) {
  Rng rng(8);
  const int n = 6;
  const Circuit c = circ::brickwork_circuit(n, 3, rng);
  StateVector sv(n);
  sv.run(c);
  const Mps mps = Mps::from_statevector(n, sv.amplitudes(), exact_opts(n));
  EXPECT_GT(fidelity(mps.to_statevector(), sv.amplitudes()), 1.0 - 1e-10);
  EXPECT_NEAR(mps.norm(), 1.0, 1e-10);
}

TEST(Mps, FromStatevectorExpectationMatches) {
  Rng rng(9);
  const int n = 5;
  const Circuit c = circ::brickwork_circuit(n, 2, rng);
  StateVector sv(n);
  sv.run(c);
  const Mps mps = Mps::from_statevector(n, sv.amplitudes(), exact_opts(n));
  const PauliString p = PauliString::parse(n, "X0 Z2 Y4");
  EXPECT_LT(std::abs(mps.expectation(p) - sv.expectation(p)), 1e-9);
}

TEST(Mps, GhzStateHasBondDimensionTwo) {
  const int n = 10;
  Mps mps(n);
  mps.apply(circ::make_h(0));
  for (int q = 0; q + 1 < n; ++q) mps.apply(circ::make_cnot(q, q + 1));
  EXPECT_EQ(mps.max_bond_dimension(), 2u);
  EXPECT_NEAR(mps.expectation(PauliString::parse(n, "Z0 Z9")).real(), 1.0,
              1e-10);
  PauliString all_x(n);
  for (int q = 0; q < n; ++q) all_x.set(std::size_t(q), pauli::P::X);
  EXPECT_NEAR(mps.expectation(all_x).real(), 1.0, 1e-10);
}

TEST(Mps, TruncationErrorIsMonitoredAndMonotone) {
  Rng rng(10);
  const int n = 8;
  const Circuit c = circ::brickwork_circuit(n, 6, rng);
  double prev_err = 1e9;
  double prev_fid = 0.0;
  StateVector sv(n);
  sv.run(c);
  for (std::size_t d : {2u, 4u, 8u, 16u}) {
    MpsOptions o;
    o.max_bond = d;
    Mps mps(n, o);
    mps.run(c);
    const double fid = fidelity(mps.to_statevector(), sv.amplitudes());
    EXPECT_LE(mps.truncation_error(), prev_err + 1e-12);
    EXPECT_GE(fid, prev_fid - 1e-9);
    prev_err = mps.truncation_error();
    prev_fid = fid;
    // Truncation makes the canonical gauge (and hence the norm) approximate;
    // the drift is bounded by the monitored truncation error.
    EXPECT_NEAR(mps.norm(), 1.0,
                std::max(1e-8, 5.0 * mps.truncation_error()));
  }
  EXPECT_GT(prev_fid, 1.0 - 1e-9);  // D = 16 is exact for 8 qubits
}

TEST(Mps, BlockEntanglingCircuitHasBoundedBond) {
  // The Fig. 2(c) workload: bond dimension saturates independent of n.
  Rng rng(11);
  std::size_t bond_small = 0, bond_large = 0;
  for (int n : {8, 16}) {
    const Circuit c = circ::block_entangling_circuit(n, 4, 1, rng);
    MpsOptions o;
    o.max_bond = 64;
    Mps mps(n, o);
    mps.run(c);
    EXPECT_LT(mps.truncation_error(), 1e-10);
    (n == 8 ? bond_small : bond_large) = mps.max_bond_dimension();
  }
  EXPECT_LE(bond_large, 8u);
  EXPECT_LE(bond_small, 8u);
}

TEST(Mps, QubitOperatorExpectation) {
  QubitOperator h = QubitOperator::identity(3, 0.5);
  h += QubitOperator::term(3, "Z0", 1.0);
  h += QubitOperator::term(3, "X1 X2", 2.0);
  Mps mps(3);
  mps.apply(circ::make_x(0));
  mps.apply(circ::make_h(1));
  mps.apply(circ::make_cnot(1, 2));
  StateVector sv(3);
  sv.apply(circ::make_x(0));
  sv.apply(circ::make_h(1));
  sv.apply(circ::make_cnot(1, 2));
  EXPECT_LT(std::abs(mps.expectation(h) - sv.expectation(h)), 1e-10);
}

TEST(Mps, MemoryScalesWithBondDimension) {
  Rng rng(12);
  const Circuit c = circ::brickwork_circuit(12, 6, rng);
  MpsOptions small, large;
  small.max_bond = 4;
  large.max_bond = 32;
  Mps a(12, small), b(12, large);
  a.run(c);
  b.run(c);
  EXPECT_LT(a.memory_bytes(), b.memory_bytes());
}

TEST(Mps, ApplyRejectsNonAdjacentGate) {
  Mps mps(4);
  EXPECT_THROW(mps.apply(circ::make_cnot(0, 3)), Error);
}

TEST(Mps, ParametricCircuitBinding) {
  Circuit c(3);
  circ::append_pauli_evolution_param(c, PauliString::parse(3, "Y0 X1"), 0, 1.0);
  Mps a(3, exact_opts(3));
  a.run(c, {0.9});
  StateVector sv(3);
  sv.run(c, {0.9});
  EXPECT_GT(fidelity(a.to_statevector(), sv.amplitudes()), 1.0 - 1e-10);
}

TEST(Mps, NanGateAngleThrowsInsteadOfPoisoningTheState) {
  // A NaN rotation angle poisons one site tensor; the next two-site update
  // decomposes a NaN operand, which must raise an error rather than leave a
  // NaN norm and NaN expectation values behind.
  Circuit c(4);
  for (int q = 0; q < 4; ++q) c.append(circ::make_h(q));
  c.append(circ::make_rz_param(1, 0, 1.0));
  for (int q = 0; q + 1 < 4; ++q) c.append(circ::make_cnot(q, q + 1));
  Mps mps(4);
  EXPECT_THROW(mps.run(c, {std::numeric_limits<double>::quiet_NaN()}), Error);
}

TEST(Mps, RecordingRestoresThePermutationOnlyAtTheStreamsEnd) {
  // A compiled stream that ends in a rotation after an elided SWAP: the
  // state after that rotation is the final one and keeps the output
  // permutation, while the state after an earlier rotation is unpermuted.
  // Each restored state has the amplitudes of the ranged run that stops
  // there.
  Circuit c(4);
  c.append(circ::make_h(0));
  c.append(circ::make_rz_param(0, 0, 1.0));
  c.append(circ::make_cnot(0, 1));
  c.append(circ::make_swap(0, 3));
  c.append(circ::make_rz_param(3, 1, 0.5));
  const circ::CompiledCircuit cc = circ::compile_for_mps(c);
  const std::vector<circ::Gate>& gates = cc.gates.gates();
  ASSERT_TRUE(gates.back().is_parametric());
  ASSERT_FALSE(cc.output_perm.is_identity());
  std::size_t first = 0;
  while (!gates[first].is_parametric()) ++first;
  ASSERT_LT(first + 1, gates.size());

  const std::vector<double> x = {0.3, -0.7};
  Mps psi(4, exact_opts(4));
  MpsRecording recording;
  psi.run(cc, x, recording);
  ASSERT_EQ(recording.segments(), 2u);
  auto expect_amplitudes = [&](const Mps& ref, const char* what) {
    EXPECT_EQ(psi.output_permutation(), ref.output_permutation()) << what;
    const std::vector<cplx> a = psi.to_statevector(), b = ref.to_statevector();
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)), 0)
        << what;
  };
  Mps end(4, exact_opts(4));
  end.run(cc, x);
  psi.restore(recording, 1);
  expect_amplitudes(end, "after the final rotation");
  Mps mid(4, exact_opts(4));
  mid.run(cc, x, 0, first + 1);
  psi.restore(recording, 0);
  EXPECT_TRUE(psi.output_permutation().is_identity());
  expect_amplitudes(mid, "after the first rotation");
  EXPECT_THROW(psi.restore(recording, 2), Error);
}

}  // namespace
}  // namespace q2::sim
