// Integral-engine tests: Boys function identities, analytic s-Gaussian
// results, Szabo-Ostlund H2/STO-3G anchor values, permutational symmetries
// of the ERI tensor, the pinned bits of the H2O, H10 ring and H10 chain
// tables, and the tables' bits at every thread count of the set-up fan-out.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "chem/basis.hpp"
#include "chem/boys.hpp"
#include "chem/integrals.hpp"
#include "chem/molecule.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::chem {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// FNV-1a over the 64-bit words of every overlap, kinetic and nuclear entry,
// then every ERI (pq|rs), each in row-major index order.
std::uint64_t table_digest(const IntegralTables& t) {
  const std::size_t n = t.overlap.rows();
  std::uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&](double x) { digest = (digest ^ bits(x)) * 0x100000001b3ull; };
  for (const la::RMatrix* m : {&t.overlap, &t.kinetic, &t.nuclear})
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = 0; q < n; ++q) mix((*m)(p, q));
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s) mix(t.eri(p, q, r, s));
  return digest;
}

TEST(Boys, ZeroArgument) {
  double f[5];
  boys(4, 0.0, f);
  for (int n = 0; n <= 4; ++n) EXPECT_NEAR(f[n], 1.0 / (2 * n + 1), 1e-14);
}

TEST(Boys, ClosedFormF0) {
  // F_0(x) = sqrt(pi/x)/2 * erf(sqrt(x)).
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0, 40.0}) {
    double f[1];
    boys(0, x, f);
    const double expect = 0.5 * std::sqrt(kPi / x) * std::erf(std::sqrt(x));
    EXPECT_NEAR(f[0], expect, 1e-12) << "x=" << x;
  }
}

TEST(Boys, DownwardRecursionIdentity) {
  // F_{n-1}(x) = (2x F_n(x) + e^{-x}) / (2n - 1) everywhere.
  for (double x : {0.2, 1.7, 8.0, 25.0, 50.0}) {
    double f[7];
    boys(6, x, f);
    for (int n = 6; n >= 1; --n) {
      EXPECT_NEAR(f[n - 1], (2 * x * f[n] + std::exp(-x)) / (2 * n - 1),
                  1e-11)
          << "x=" << x << " n=" << n;
    }
  }
}

TEST(Boys, MonotoneInOrderAndArgument) {
  double f1[6], f2[6];
  boys(5, 1.0, f1);
  for (int n = 1; n <= 5; ++n) EXPECT_LT(f1[n], f1[n - 1]);
  boys(5, 2.0, f2);
  for (int n = 0; n <= 5; ++n) EXPECT_LT(f2[n], f1[n]);
}

TEST(BasisSet, FunctionsAreNormalized) {
  const Molecule mol = Molecule::h2o();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  EXPECT_EQ(basis.size(), 7u);  // O: 1s 2s 2p(x3); H x2
  for (std::size_t i = 0; i < basis.size(); ++i)
    EXPECT_NEAR(overlap_integral(basis[i], basis[i]), 1.0, 1e-10) << i;
}

TEST(BasisSet, AtomAssignment) {
  const Molecule mol = Molecule::h2o();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  EXPECT_EQ(basis.functions_on_atom(0).size(), 5u);  // oxygen
  EXPECT_EQ(basis.functions_on_atom(1).size(), 1u);
  EXPECT_EQ(basis.functions_on_atom(2).size(), 1u);
}

TEST(BasisSet, SixThirtyOneGHydrogen) {
  const Molecule mol = Molecule::h2(1.4);
  const BasisSet basis = BasisSet::build(mol, "6-31g");
  EXPECT_EQ(basis.size(), 4u);  // two s shells per H
  for (std::size_t i = 0; i < basis.size(); ++i)
    EXPECT_NEAR(overlap_integral(basis[i], basis[i]), 1.0, 1e-10);
}

TEST(Integrals, SingleGaussianAnalyticKinetic) {
  // For a normalized 1s Gaussian with exponent a: <T> = 3a/2.
  BasisFunction g;
  g.lmn = {0, 0, 0};
  g.center = {0, 0, 0};
  g.exponents = {0.8};
  g.coefficients = {primitive_norm(0.8, g.lmn)};
  EXPECT_NEAR(kinetic_integral(g, g), 3.0 * 0.8 / 2.0, 1e-12);
}

TEST(Integrals, NuclearAttractionOnCenter) {
  // <1s|1/r|1s> = 2 sqrt(a / pi) * ... for normalized s Gaussian:
  // V = -Z * 2 * sqrt(2a/pi) ... use the closed form 2*sqrt(a/(pi/2))/...
  // <1/r> for N(a) e^{-a r^2} is 2 sqrt(a/pi) * sqrt(2)? Known result:
  // <1/r> = 2 sqrt(2a/pi). Validate numerically against that.
  const double a = 1.3;
  BasisFunction g;
  g.lmn = {0, 0, 0};
  g.center = {0, 0, 0};
  g.exponents = {a};
  g.coefficients = {primitive_norm(a, g.lmn)};
  const double v = nuclear_integral(g, g, {0, 0, 0}, 1);
  EXPECT_NEAR(v, -2.0 * std::sqrt(2.0 * a / kPi), 1e-10);
}

TEST(Integrals, SzaboOstlundH2Anchors) {
  // Szabo & Ostlund Table 3.5 (STO-3G, R = 1.4 a0) values.
  const Molecule mol = Molecule::h2(1.4);
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  EXPECT_NEAR(overlap_integral(basis[0], basis[1]), 0.6593, 2e-4);
  EXPECT_NEAR(kinetic_integral(basis[0], basis[0]), 0.7600, 2e-4);
  EXPECT_NEAR(kinetic_integral(basis[0], basis[1]), 0.2365, 2e-4);
  EXPECT_NEAR(eri_integral(basis[0], basis[0], basis[0], basis[0]), 0.7746,
              2e-4);
  EXPECT_NEAR(eri_integral(basis[0], basis[0], basis[1], basis[1]), 0.5697,
              2e-4);
  EXPECT_NEAR(eri_integral(basis[1], basis[0], basis[0], basis[0]), 0.4441,
              2e-4);
  EXPECT_NEAR(eri_integral(basis[1], basis[0], basis[1], basis[0]), 0.2970,
              2e-4);
}

TEST(Integrals, EriEightFoldSymmetry) {
  const Molecule mol = Molecule::h2o();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  // Spot-check (pq|rs) = (qp|rs) = (rs|pq) = ... on p-function quartets.
  const std::size_t p = 2, q = 4, r = 5, s = 1;  // includes p orbitals
  const double base = eri_integral(basis[p], basis[q], basis[r], basis[s]);
  EXPECT_NEAR(eri_integral(basis[q], basis[p], basis[r], basis[s]), base, 1e-11);
  EXPECT_NEAR(eri_integral(basis[p], basis[q], basis[s], basis[r]), base, 1e-11);
  EXPECT_NEAR(eri_integral(basis[r], basis[s], basis[p], basis[q]), base, 1e-11);
}

TEST(Integrals, TablesMatchDirectEvaluation) {
  // Every table entry equals the direct evaluation exactly, in the table's
  // own argument order (p >= q, pair (p, q) >= pair (r, s)); an ERI whose
  // Schwarz bound sqrt((pq|pq)) * sqrt((rs|rs)) is below 1e-12 is screened
  // to 0.
  for (const Molecule& mol : {Molecule::hydrogen_chain(4, 1.8), Molecule::h2o()}) {
    const BasisSet basis = BasisSet::build(mol, "sto-3g");
    const IntegralTables t = compute_integrals(mol, basis);
    const std::size_t n = basis.size();
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    std::vector<double> schwarz;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = 0; q <= p; ++q) {
        EXPECT_EQ(t.overlap(p, q), overlap_integral(basis[p], basis[q]));
        EXPECT_EQ(t.overlap(q, p), t.overlap(p, q));
        EXPECT_EQ(t.kinetic(p, q), kinetic_integral(basis[p], basis[q]));
        EXPECT_EQ(t.kinetic(q, p), t.kinetic(p, q));
        double v = 0;
        for (const Atom& a : mol.atoms())
          v += nuclear_integral(basis[p], basis[q], a.xyz, a.z);
        EXPECT_EQ(t.nuclear(p, q), v);
        EXPECT_EQ(t.nuclear(q, p), v);
        pairs.emplace_back(p, q);
        schwarz.push_back(std::sqrt(std::abs(
            eri_integral(basis[p], basis[q], basis[p], basis[q]))));
      }
    for (std::size_t i = 0; i < pairs.size(); ++i)
      for (std::size_t j = 0; j <= i; ++j) {
        const auto [p, q] = pairs[i];
        const auto [r, s] = pairs[j];
        const double want =
            schwarz[i] == 0 || schwarz[i] * schwarz[j] < 1e-12
                ? 0.0
                : eri_integral(basis[p], basis[q], basis[r], basis[s]);
        EXPECT_EQ(t.eri(p, q, r, s), want)
            << "(" << p << q << "|" << r << s << ")";
      }
  }
}

TEST(Integrals, H2OEntriesKeepTheirBits) {
  // Pinned bits of the H2O STO-3G tables (basis O 1s, 2s, 2px, 2py, 2pz,
  // H 1s, H 1s): a digest of every overlap, kinetic, nuclear and ERI entry,
  // and a few entries by name, p functions up to (pp|pp) among them. A
  // change to the operations of the Boys function or the Hermite-Coulomb
  // recursion, or to their order, shows here. The bits also follow libm's
  // exp and sqrt and a build that does not contract to FMA (no -march).
  const Molecule mol = Molecule::h2o();
  const IntegralTables t =
      compute_integrals(mol, BasisSet::build(mol, "sto-3g"));
  ASSERT_EQ(t.overlap.rows(), 7u);
  EXPECT_EQ(table_digest(t), 0xb4ee2f3918e9cd57ull);

  struct Nuclear {
    std::size_t p, q;
    std::uint64_t bits;
  };
  for (const Nuclear& e : {Nuclear{0, 0, 0xc04edc921d76914full},
                           Nuclear{2, 2, 0xc0244887830da32full},
                           Nuclear{5, 3, 0xbffd134f246f517dull},
                           Nuclear{6, 2, 0x400203f6c99b0bf7ull}})
    EXPECT_EQ(bits(t.nuclear(e.p, e.q)), e.bits)
        << "V(" << e.p << "," << e.q << ")";
  struct Eri {
    std::size_t p, q, r, s;
    std::uint64_t bits;
  };
  for (const Eri& e : {Eri{0, 0, 0, 0, 0x401323e82f79b980ull},
                       Eri{2, 2, 2, 2, 0x3fec2a43672a549eull},
                       Eri{2, 0, 5, 2, 0x3f8a051cb79de616ull},
                       Eri{3, 3, 5, 0, 0x3fade8d7148c15daull},
                       Eri{6, 2, 5, 3, 0xbfa24b33e9cee6cdull},
                       Eri{3, 2, 6, 5, 0xbc08000000000000ull}})  // -1.6e-19
    EXPECT_EQ(bits(t.eri(e.p, e.q, e.r, e.s)), e.bits)
        << "(" << e.p << e.q << "|" << e.r << e.s << ")";
}

TEST(Integrals, TableDigestsKeepTheirBits) {
  // The same digest pinned for the tables every benchmark workload builds:
  // STO-3G H10 ring and chain at 1.8 bohr (s shells only, so every quartet
  // takes the n_max = 0 Coulomb case), beside the H2O pin above (p shells,
  // mixed quartets).
  struct Pin {
    const char* name;
    Molecule mol;
    std::uint64_t digest;
  };
  for (const Pin& pin :
       {Pin{"h2o", Molecule::h2o(), 0xb4ee2f3918e9cd57ull},
        Pin{"h10 ring", Molecule::hydrogen_ring(10, 1.8), 0xe5f52dac953c31c8ull},
        Pin{"h10 chain", Molecule::hydrogen_chain(10, 1.8),
            0x8389bc0a329334a3ull}})
    EXPECT_EQ(table_digest(compute_integrals(
                  pin.mol, BasisSet::build(pin.mol, "sto-3g"))),
              pin.digest)
        << pin.name;
}

void expect_same_bits(const IntegralTables& want, const IntegralTables& got,
                      const std::string& label) {
  const std::size_t n = want.overlap.rows();
  ASSERT_EQ(got.overlap.rows(), n) << label;
  for (const auto& [w, g, name] :
       {std::tuple{&want.overlap, &got.overlap, "S"},
        std::tuple{&want.kinetic, &got.kinetic, "T"},
        std::tuple{&want.nuclear, &got.nuclear, "V"}})
    EXPECT_EQ(std::memcmp(w->data(), g->data(), n * n * sizeof(double)), 0)
        << label << " " << name;
  std::size_t differ = 0;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s) {
          const double a = want.eri(p, q, r, s), b = got.eri(p, q, r, s);
          if (std::memcmp(&a, &b, sizeof(double)) != 0) ++differ;
        }
  EXPECT_EQ(differ, 0u) << label << " ERI entries differ";
}

TEST(Integrals, TablesAreThreadCountInvariant) {
  // The set-up fan-out gives each entry one writer running the serial
  // kernel: at 2, 3 and 4 threads, and from inside a pool task (the nested
  // loop's caller runs chunks itself), every S, T, V and ERI entry is
  // memcmp-equal to the 1-thread table.
  struct Case {
    std::string name;
    Molecule mol;
  };
  for (const Case& c : {Case{"h10 ring", Molecule::hydrogen_ring(10, 1.8)},
                        Case{"h10 chain", Molecule::hydrogen_chain(10, 1.8)},
                        Case{"h2o", Molecule::h2o()}}) {
    const BasisSet basis = BasisSet::build(c.mol, "sto-3g");
    const IntegralTables serial =
        compute_integrals(c.mol, basis, par::ParallelOptions{1});
    for (std::size_t threads : {2u, 3u, 4u})
      expect_same_bits(serial,
                       compute_integrals(c.mol, basis,
                                         par::ParallelOptions{threads}),
                       c.name + ", " + std::to_string(threads) + " threads");
    IntegralTables nested;
    par::ThreadPool::global()
        .submit([&] {
          nested = compute_integrals(c.mol, basis, par::ParallelOptions{4});
        })
        .get();
    expect_same_bits(serial, nested, c.name + ", in a pool task");
  }
}

TEST(Integrals, PFunctionOverlapOrthogonality) {
  // px and py on the same centre are orthogonal; px-px normalized.
  const Molecule mol = Molecule::h2o();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  // O p-functions are indices 2,3,4.
  EXPECT_NEAR(overlap_integral(basis[2], basis[3]), 0.0, 1e-12);
  EXPECT_NEAR(overlap_integral(basis[2], basis[4]), 0.0, 1e-12);
  EXPECT_NEAR(overlap_integral(basis[3], basis[3]), 1.0, 1e-10);
}

TEST(Molecule, GeometryFactories) {
  const Molecule ring = Molecule::hydrogen_ring(10, 1.8);
  EXPECT_EQ(ring.n_atoms(), 10u);
  // Nearest-neighbour distance equals the requested bond length.
  double r2 = 0;
  for (int d = 0; d < 3; ++d) {
    const double dx = ring.atoms()[0].xyz[d] - ring.atoms()[1].xyz[d];
    r2 += dx * dx;
  }
  EXPECT_NEAR(std::sqrt(r2), 1.8, 1e-10);
  EXPECT_EQ(ring.n_electrons(), 10);

  const Molecule chain = Molecule::hydrogen_chain(4, 1.4);
  EXPECT_NEAR(chain.nuclear_repulsion(),
              1 / 1.4 + 1 / 1.4 + 1 / 1.4 + 1 / 2.8 + 1 / 2.8 + 1 / 4.2, 1e-12);

  const Molecule c6 = Molecule::carbon_ring(6, 2.6, 2.4);
  EXPECT_EQ(c6.n_atoms(), 6u);
  EXPECT_EQ(c6.n_electrons(), 36);
}

}  // namespace
}  // namespace q2::chem
