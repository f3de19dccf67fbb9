// The ladder-product Jordan-Wigner transform, kept as the oracle the
// streamed pauli::JordanWignerAccumulator is checked against: each ladder
// image is multiplied in through QubitOperator::operator*, with a
// compress(1e-14) after every ladder, the products are summed in order and
// the sum is cut at 1e-12.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "pauli/jordan_wigner.hpp"

namespace q2::test {

inline pauli::QubitOperator ladder_product_jw(
    const pauli::FermionOperator& op) {
  const std::size_t n = op.n_modes();
  pauli::QubitOperator out(n);
  for (const auto& [ops, coeff] : op.terms()) {
    pauli::QubitOperator prod = pauli::QubitOperator::identity(n, coeff);
    for (const pauli::Ladder& l : ops) {
      prod = prod * (l.dagger ? pauli::jw_creation(n, l.orbital)
                              : pauli::jw_annihilation(n, l.orbital));
      prod.compress(1e-14);
    }
    out += prod;
  }
  out.compress(1e-12);
  return out;
}

/// The same strings with coefficients equal bit for bit (so == holds, and
/// a zero has the same sign).
inline void expect_same_terms(const pauli::QubitOperator& got,
                              const pauli::QubitOperator& want) {
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(got.n_qubits(), want.n_qubits());
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [p, c] : want.terms()) {
    const auto it = got.terms().find(p);
    ASSERT_NE(it, got.terms().end()) << "missing " << p.str();
    EXPECT_EQ(bits(it->second.real()), bits(c.real())) << p.str();
    EXPECT_EQ(bits(it->second.imag()), bits(c.imag())) << p.str();
  }
}

}  // namespace q2::test
