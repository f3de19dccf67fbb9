// Pauli algebra and Jordan-Wigner tests: multiplication phase table,
// commutation symplectic form, operator algebra, the sorted term order, the
// canonical anticommutation relations of the JW images, and the streamed
// transform against the ladder-product oracle.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "jw_oracle.hpp"
#include "pauli/jordan_wigner.hpp"
#include "pauli/pauli_string.hpp"
#include "pauli/qubit_operator.hpp"

namespace q2::pauli {
namespace {

cplx i_pow(int k) {
  switch (((k % 4) + 4) % 4) {
    case 0: return {1, 0};
    case 1: return {0, 1};
    case 2: return {-1, 0};
    default: return {0, -1};
  }
}

TEST(PauliString, ParseAndPrint) {
  const PauliString p = PauliString::parse(5, "X0 Y2 Z4");
  EXPECT_EQ(p.get(0), P::X);
  EXPECT_EQ(p.get(1), P::I);
  EXPECT_EQ(p.get(2), P::Y);
  EXPECT_EQ(p.get(4), P::Z);
  EXPECT_EQ(p.str(), "X0 Y2 Z4");
  EXPECT_EQ(p.weight(), 3u);
}

TEST(PauliString, SupportRange) {
  const PauliString p = PauliString::parse(8, "Z2 X5");
  const auto [lo, hi] = p.support_range();
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 5u);
  EXPECT_EQ(p.support(), (std::vector<std::size_t>{2, 5}));
}

TEST(PauliString, SingleQubitProductTable) {
  // X*Y = iZ, Y*Z = iX, Z*X = iY and the reverse orders with -i.
  struct Case {
    const char *a, *b, *c;
    int phase;
  };
  const Case cases[] = {
      {"X0", "Y0", "Z0", 1}, {"Y0", "X0", "Z0", 3}, {"Y0", "Z0", "X0", 1},
      {"Z0", "Y0", "X0", 3}, {"Z0", "X0", "Y0", 1}, {"X0", "Z0", "Y0", 3},
      {"X0", "X0", "I", 0},  {"Y0", "Y0", "I", 0},  {"Z0", "Z0", "I", 0},
  };
  for (const auto& c : cases) {
    const auto [r, k] = multiply(PauliString::parse(1, c.a),
                                 PauliString::parse(1, c.b));
    EXPECT_EQ(r.str(), std::string(c.c)) << c.a << "*" << c.b;
    EXPECT_EQ(k % 4, c.phase) << c.a << "*" << c.b;
  }
}

TEST(PauliString, MultiQubitProductPhaseComposes) {
  const PauliString a = PauliString::parse(3, "X0 Y1");
  const PauliString b = PauliString::parse(3, "Y0 Y1 Z2");
  const auto [r, k] = multiply(a, b);
  // X*Y = iZ on 0; Y*Y = I on 1; I*Z = Z on 2 -> total phase i.
  EXPECT_EQ(r.str(), "Z0 Z2");
  EXPECT_EQ(i_pow(k), cplx(0, 1));
}

TEST(PauliString, CommutationSymplecticForm) {
  const PauliString x = PauliString::parse(2, "X0");
  const PauliString z = PauliString::parse(2, "Z0");
  const PauliString zz = PauliString::parse(2, "Z0 Z1");
  const PauliString xx = PauliString::parse(2, "X0 X1");
  EXPECT_FALSE(x.commutes_with(z));
  EXPECT_TRUE(zz.commutes_with(xx));  // two anticommuting sites -> commute
  EXPECT_TRUE(x.commutes_with(PauliString::parse(2, "Z1")));
}

TEST(PauliString, HashEqualityConsistency) {
  const PauliString a = PauliString::parse(70, "X0 Z65");
  const PauliString b = PauliString::parse(70, "X0 Z65");
  EXPECT_EQ(a, b);
  EXPECT_EQ(PauliString::Hash{}(a), PauliString::Hash{}(b));
}

TEST(QubitOperator, AdditionMergesTerms) {
  QubitOperator a = QubitOperator::term(2, "X0", 0.5);
  a += QubitOperator::term(2, "X0", 0.25);
  a += QubitOperator::term(2, "Z1", 1.0);
  EXPECT_EQ(a.size(), 2u);
  a.compress();
  const auto terms = a.sorted_terms();
  EXPECT_EQ(terms.size(), 2u);
}

TEST(QubitOperator, ProductUsesPhases) {
  const QubitOperator x = QubitOperator::term(1, "X0");
  const QubitOperator y = QubitOperator::term(1, "Y0");
  const QubitOperator xy = x * y;
  ASSERT_EQ(xy.size(), 1u);
  const auto& [p, c] = *xy.terms().begin();
  EXPECT_EQ(p.str(), "Z0");
  EXPECT_LT(std::abs(c - cplx(0, 1)), 1e-14);
}

TEST(QubitOperator, SquareOfPauliIsIdentity) {
  const QubitOperator op = QubitOperator::term(3, "X0 Y1 Z2", 2.0);
  const QubitOperator sq = op * op;
  ASSERT_EQ(sq.size(), 1u);
  EXPECT_LT(std::abs(sq.constant() - cplx(4, 0)), 1e-14);
}

TEST(QubitOperator, HermiticityCheck) {
  QubitOperator h = QubitOperator::term(2, "X0 X1", 0.5);
  EXPECT_TRUE(h.is_hermitian());
  h += QubitOperator::term(2, "Z0", cplx(0, 0.1));
  EXPECT_FALSE(h.is_hermitian());
}

TEST(QubitOperator, CompressRemovesZeros) {
  QubitOperator a = QubitOperator::term(1, "X0", 1.0);
  a += QubitOperator::term(1, "X0", -1.0);
  a += QubitOperator::term(1, "Z0", 0.5);
  a.compress();
  EXPECT_EQ(a.size(), 1u);
}

TEST(QubitOperator, SortedTermsOrderIsWeightThenLabel) {
  // The reference: std::sort with a comparator that builds both labels on
  // every comparison. Labels are unique, so the order is total.
  auto by_weight_then_label = [](const auto& a, const auto& b) {
    if (a.first.weight() != b.first.weight())
      return a.first.weight() < b.first.weight();
    return a.first.str() < b.first.str();
  };
  Rng rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    QubitOperator op(24);
    // Labels compare as text: "X10" sorts before "X2".
    op.add(PauliString::parse(24, "X2"), 1.0);
    op.add(PauliString::parse(24, "X10"), 2.0);
    for (int t = 0; t < 300; ++t) {
      PauliString p(24);
      const std::size_t weight = 1 + rng.index(6);
      for (std::size_t k = 0; k < weight; ++k)
        p.set(rng.index(24), P(1 + rng.index(3)));
      op.add(p, rng.complex_normal());
    }
    std::vector<std::pair<PauliString, cplx>> want(op.terms().begin(),
                                                   op.terms().end());
    std::sort(want.begin(), want.end(), by_weight_then_label);
    const auto got = op.sorted_terms();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << i;
      EXPECT_EQ(got[i].second, want[i].second) << i;
    }
    const auto at = [&](const std::string& label) {
      for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i].first.str() == label) return i;
      return got.size();
    };
    EXPECT_LT(at("X10"), at("X2"));
  }
}

TEST(JordanWigner, NumberOperatorForm) {
  const QubitOperator n = jw_number(3, 1);
  // (I - Z1)/2
  EXPECT_LT(std::abs(n.constant() - cplx(0.5, 0)), 1e-14);
  const auto terms = n.sorted_terms();
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[1].first.str(), "Z1");
  EXPECT_LT(std::abs(terms[1].second - cplx(-0.5, 0)), 1e-14);
}

TEST(JordanWigner, CanonicalAnticommutation) {
  // {a_p, a_q^dagger} = delta_pq, {a_p, a_q} = 0, checked as operators.
  const std::size_t n = 4;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      const QubitOperator ap = jw_annihilation(n, p);
      const QubitOperator aqd = jw_creation(n, q);
      QubitOperator anti = ap * aqd + aqd * ap;
      anti.compress(1e-12);
      if (p == q) {
        ASSERT_EQ(anti.size(), 1u);
        EXPECT_LT(std::abs(anti.constant() - cplx(1, 0)), 1e-12);
      } else {
        EXPECT_EQ(anti.size(), 0u);
      }
      const QubitOperator aq = jw_annihilation(n, q);
      QubitOperator anti2 = ap * aq + aq * ap;
      anti2.compress(1e-12);
      EXPECT_EQ(anti2.size(), 0u);
    }
  }
}

TEST(JordanWigner, NumberEqualsCreationTimesAnnihilation) {
  const std::size_t n = 3;
  for (std::size_t p = 0; p < n; ++p) {
    QubitOperator lhs = jw_creation(n, p) * jw_annihilation(n, p);
    lhs -= jw_number(n, p);
    lhs.compress(1e-12);
    EXPECT_EQ(lhs.size(), 0u);
  }
}

TEST(JordanWigner, FermionOperatorAdjoint) {
  FermionOperator f(3);
  f.add_term({{2, true}, {0, false}}, cplx(0.5, 0.25));
  const FermionOperator fd = f.adjoint();
  ASSERT_EQ(fd.terms().size(), 1u);
  const auto& [ops, c] = fd.terms()[0];
  EXPECT_EQ(ops[0].orbital, 0u);
  EXPECT_TRUE(ops[0].dagger);
  EXPECT_EQ(ops[1].orbital, 2u);
  EXPECT_FALSE(ops[1].dagger);
  EXPECT_LT(std::abs(c - cplx(0.5, -0.25)), 1e-14);
}

TEST(JordanWigner, TransformMatchesOperatorAlgebra) {
  // jw(a+_1 a_0) must equal jw_creation(1) * jw_annihilation(0).
  FermionOperator f(3);
  f.add_term({{1, true}, {0, false}}, 1.0);
  QubitOperator lhs = jordan_wigner(f);
  QubitOperator rhs = jw_creation(3, 1) * jw_annihilation(3, 0);
  rhs.compress(1e-12);
  lhs -= rhs;
  lhs.compress(1e-12);
  EXPECT_EQ(lhs.size(), 0u);
}

TEST(JordanWigner, HermitianGeneratorMapsToAntiHermitianImage) {
  // T - T^dagger maps to purely imaginary coefficients (used by UCCSD).
  FermionOperator t(4);
  t.add_term({{2, true}, {3, true}, {1, false}, {0, false}}, 1.0);
  FermionOperator td = t.adjoint();
  td *= -1.0;
  t += td;
  const QubitOperator g = jordan_wigner(t);
  EXPECT_GT(g.size(), 0u);
  for (const auto& [p, c] : g.terms()) EXPECT_LT(std::abs(c.real()), 1e-12);
}

// Random ladder products of 1, 2 and 4 operators whose orbitals often
// coincide (drawn from a small pool), with complex coefficients.
FermionOperator random_fermion_operator(std::size_t n, Rng& rng) {
  FermionOperator f(n);
  std::vector<std::size_t> pool(3);
  for (int t = 0; t < 120; ++t) {
    for (auto& o : pool) o = rng.index(n);
    const std::size_t k = std::size_t(1) << rng.index(3);  // 1, 2 or 4
    std::vector<Ladder> ops;
    for (std::size_t j = 0; j < k; ++j)
      ops.push_back({rng.uniform() < 0.5 ? pool[rng.index(3)] : rng.index(n),
                     rng.uniform() < 0.5});
    f.add_term(std::move(ops), rng.complex_normal());
  }
  return f;
}

TEST(JordanWigner, StreamedMatchesLadderProducts) {
  Rng rng(31337);
  for (std::size_t n : {3u, 20u, 70u}) {
    FermionOperator f = random_fermion_operator(n, rng);
    const std::size_t p = n - 1, q = n / 2, r = 1;
    // Coincident indices: a+_p a_p, a+_p a+_p (zero), a+_p a+_r a_r a_p,
    // a_p a+_p, a+_p a_q a+_q a_p.
    f.add_term({{p, true}, {p, false}}, cplx(0.3, -0.7));
    f.add_term({{p, true}, {p, true}}, 1.0);
    f.add_term({{p, true}, {r, true}, {r, false}, {p, false}}, cplx(-1.1, 0.2));
    f.add_term({{p, false}, {p, true}}, 0.9);
    f.add_term({{p, true}, {q, false}, {q, true}, {p, false}}, cplx(0, 0.4));
    // Products whose strings sit just above and just below the 1e-14 drop
    // (|coeff| * 2^-k), each on top of the same product at full size so a
    // kept or dropped contribution shows in the summed coefficient.
    for (double side : {1.0 + 1e-6, 1.0 - 1e-6}) {
      for (std::size_t k : {1u, 2u, 4u}) {
        std::vector<Ladder> ops;
        for (std::size_t j = 0; j < k; ++j)
          ops.push_back({(q + 3 * j) % n, j < k / 2});
        const double phase = rng.uniform(0.0, 6.283185307179586);
        const double size = std::ldexp(1e-14 * side, int(k));
        f.add_term(ops, cplx(0.25, -0.5));
        f.add_term(ops, std::polar(size, phase));
      }
    }
    q2::test::expect_same_terms(jordan_wigner(f),
                                q2::test::ladder_product_jw(f));
  }
}

}  // namespace
}  // namespace q2::pauli
