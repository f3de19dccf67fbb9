#include "chem/integrals.hpp"

#include <algorithm>
#include <cmath>

#include "chem/boys.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::chem {
namespace {

// Hermite expansion coefficient E_t^{ij} for a 1D Gaussian product
// (McMurchie-Davidson / Helgaker recursion). Qx = A_x - B_x.
double hermite_e(int i, int j, int t, double qx, double a, double b) {
  const double p = a + b;
  const double mu = a * b / p;
  if (t < 0 || t > i + j) return 0.0;
  if (i == 0 && j == 0 && t == 0) return std::exp(-mu * qx * qx);
  if (j == 0) {
    return (1.0 / (2.0 * p)) * hermite_e(i - 1, j, t - 1, qx, a, b) -
           (mu * qx / a) * hermite_e(i - 1, j, t, qx, a, b) +
           (t + 1) * hermite_e(i - 1, j, t + 1, qx, a, b);
  }
  return (1.0 / (2.0 * p)) * hermite_e(i, j - 1, t - 1, qx, a, b) +
         (mu * qx / b) * hermite_e(i, j - 1, t, qx, a, b) +
         (t + 1) * hermite_e(i, j - 1, t + 1, qx, a, b);
}

// Scratch reused across hermite_coulomb calls, so the primitive loops
// allocate nothing: the Boys values and two R^n layers, or R^0_000 alone
// where that is all there is.
struct CoulombScratch {
  std::vector<double> f, r;
  double r000 = 0;
};

// Hermite Coulomb tensor R^0_{tuv}(p, PC) built by downward-n recursion.
// Returns R[t][u][v] for t <= tmax etc. (row-major), held in `w` until the
// next call.
const double* hermite_coulomb(int tmax, int umax, int vmax, double p,
                              const std::array<double, 3>& pc,
                              CoulombScratch& w) {
  const double r2 = pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2];
  const int nmax = tmax + umax + vmax;
  if (nmax == 0) {
    // An s-type product: R^0_000 = F_0, the recursion's 1 * F_0 below.
    boys(0, p * r2, &w.r000);
    return &w.r000;
  }
  w.f.resize(std::size_t(nmax) + 1);
  boys(nmax, p * r2, w.f.data());

  const int dt = tmax + 1, du = umax + 1, dv = vmax + 1;
  auto idx = [&](int t, int u, int v) { return (t * du + u) * dv + v; };
  // R^n is layer n % 2 of r: each layer reads only the one above it. Built
  // from n = nmax down to 0; R^nmax is zero beyond its first entry, and
  // every lower layer is written in full.
  const std::size_t size = std::size_t(dt * du * dv);
  w.r.resize(2 * size);
  std::fill_n(w.r.data() + std::size_t(nmax % 2) * size, size, 0.0);
  for (int n = nmax; n >= 0; --n) {
    double pw = 1.0;
    for (int k = 0; k < n; ++k) pw *= -2.0 * p;
    double* cur = w.r.data() + std::size_t(n % 2) * size;
    cur[idx(0, 0, 0)] = pw * w.f[std::size_t(n)];
    if (n == nmax) continue;
    const double* up = w.r.data() + std::size_t((n + 1) % 2) * size;
    for (int t = 0; t <= tmax; ++t) {
      for (int u = 0; u <= umax; ++u) {
        for (int v = 0; v <= vmax; ++v) {
          if (t + u + v == 0) continue;
          double val = 0;
          if (t > 0) {
            val = pc[0] * up[idx(t - 1, u, v)];
            if (t > 1) val += (t - 1) * up[idx(t - 2, u, v)];
          } else if (u > 0) {
            val = pc[1] * up[idx(t, u - 1, v)];
            if (u > 1) val += (u - 1) * up[idx(t, u - 2, v)];
          } else {
            val = pc[2] * up[idx(t, u, v - 1)];
            if (v > 1) val += (v - 1) * up[idx(t, u, v - 2)];
          }
          cur[idx(t, u, v)] = val;
        }
      }
    }
  }
  return w.r.data();
}

// Precomputed primitive-pair data for one pair of contracted functions.
struct PrimPair {
  double p;                      ///< combined exponent
  std::array<double, 3> center;  ///< Gaussian product centre P
  double coeff;                  ///< c_a * c_b
  std::array<std::vector<double>, 3> e;  ///< E_t per dimension, t = 0..la+lb
  /// E_t E_u E_v over (t, u, v) row-major: this pair's factor in a nuclear
  /// sum and on the bra side of a Coulomb sum. `e_tuv_ket` is the same
  /// times (-1)^(t+u+v), its factor on the ket side. Both are the products
  /// the quartet loop would otherwise form for every primitive quartet.
  std::vector<double> e_tuv, e_tuv_ket;
};

// The primitive pairs of a contracted pair (a, b) and its summed angular
// momentum la + lb per dimension.
struct FunctionPair {
  std::vector<PrimPair> prims;
  std::array<int, 3> l{};
};

FunctionPair make_pairs(const BasisFunction& a, const BasisFunction& b) {
  FunctionPair pair;
  for (int d = 0; d < 3; ++d) pair.l[d] = a.lmn[d] + b.lmn[d];
  const auto [lt, lu, lv] = pair.l;
  pair.prims.reserve(a.exponents.size() * b.exponents.size());
  for (std::size_t k = 0; k < a.exponents.size(); ++k) {
    for (std::size_t l = 0; l < b.exponents.size(); ++l) {
      PrimPair pp;
      const double ae = a.exponents[k], be = b.exponents[l];
      pp.p = ae + be;
      pp.coeff = a.coefficients[k] * b.coefficients[l];
      for (int d = 0; d < 3; ++d) {
        pp.center[d] = (ae * a.center[d] + be * b.center[d]) / pp.p;
        const int i = a.lmn[d], j = b.lmn[d];
        pp.e[d].resize(std::size_t(i + j) + 1);
        for (int t = 0; t <= i + j; ++t)
          pp.e[d][std::size_t(t)] =
              hermite_e(i, j, t, a.center[d] - b.center[d], ae, be);
      }
      for (int t = 0; t <= lt; ++t)
        for (int u = 0; u <= lu; ++u)
          for (int v = 0; v <= lv; ++v) {
            const double e = pp.e[0][std::size_t(t)] *
                             pp.e[1][std::size_t(u)] * pp.e[2][std::size_t(v)];
            pp.e_tuv.push_back(e);
            pp.e_tuv_ket.push_back((t + u + v) % 2 ? -e : e);
          }
      pair.prims.push_back(std::move(pp));
    }
  }
  return pair;
}

double overlap_from_pairs(const FunctionPair& pair) {
  double s = 0;
  for (const PrimPair& pp : pair.prims) {
    s += pp.coeff * pp.e[0][0] * pp.e[1][0] * pp.e[2][0] *
         std::pow(kPi / pp.p, 1.5);
  }
  return s;
}

double nuclear_from_pairs(const FunctionPair& pair,
                          const std::array<double, 3>& nucleus, int z,
                          CoulombScratch& scratch) {
  double v_total = 0;
  for (const PrimPair& pp : pair.prims) {
    std::array<double, 3> pc;
    for (int d = 0; d < 3; ++d) pc[d] = pp.center[d] - nucleus[d];
    const double* r =
        hermite_coulomb(pair.l[0], pair.l[1], pair.l[2], pp.p, pc, scratch);
    // e_tuv and R share the (t, u, v) row-major layout.
    double sum = 0;
    for (std::size_t i = 0; i < pp.e_tuv.size(); ++i) sum += pp.e_tuv[i] * r[i];
    v_total += pp.coeff * (2.0 * kPi / pp.p) * sum;
  }
  return -double(z) * v_total;
}

// (bra|ket) over every primitive quartet. A product E^bra E^ket that is
// zero is skipped, and (-1)^(t'+u'+v') rides in the ket's factor: the sign
// is exact, so each term keeps the bits of eb * ek * sign * R.
double eri_from_pairs(const FunctionPair& bra, const FunctionPair& ket,
                      CoulombScratch& scratch) {
  const auto [tb, ub, vb] = bra.l;
  const auto [tk, uk, vk] = ket.l;
  const int du = ub + uk + 1, dv = vb + vk + 1;
  double total = 0;
  for (const PrimPair& b : bra.prims) {
    for (const PrimPair& k : ket.prims) {
      const double alpha = b.p * k.p / (b.p + k.p);
      std::array<double, 3> pq;
      for (int d = 0; d < 3; ++d) pq[d] = b.center[d] - k.center[d];
      const double* r =
          hermite_coulomb(tb + tk, ub + uk, vb + vk, alpha, pq, scratch);
      double sum = 0;
      const double* eb = b.e_tuv.data();
      for (int t = 0; t <= tb; ++t)
        for (int u = 0; u <= ub; ++u)
          for (int v = 0; v <= vb; ++v, ++eb) {
            if (*eb == 0.0) continue;
            const double* ek = k.e_tuv_ket.data();
            for (int tt = 0; tt <= tk; ++tt)
              for (int uu = 0; uu <= uk; ++uu)
                for (int vv = 0; vv <= vk; ++vv, ++ek) {
                  if (*ek == 0.0) continue;
                  sum += *eb * *ek *
                         r[std::size_t(((t + tt) * du + u + uu) * dv + v + vv)];
                }
          }
      total += b.coeff * k.coeff * sum * 2.0 * std::pow(kPi, 2.5) /
               (b.p * k.p * std::sqrt(b.p + k.p));
    }
  }
  return total;
}

}  // namespace

EriTable::EriTable(std::size_t n) : n_(n) {
  const std::size_t np = n * (n + 1) / 2;
  data_.assign(np * (np + 1) / 2, 0.0);
}

double overlap_integral(const BasisFunction& a, const BasisFunction& b) {
  return overlap_from_pairs(make_pairs(a, b));
}

double kinetic_integral(const BasisFunction& a, const BasisFunction& b) {
  double t_total = 0;
  for (std::size_t k = 0; k < a.exponents.size(); ++k) {
    for (std::size_t l = 0; l < b.exponents.size(); ++l) {
      const double ae = a.exponents[k], be = b.exponents[l];
      const double p = ae + be;
      const double coeff = a.coefficients[k] * b.coefficients[l];
      double s0[3], kin[3];
      for (int d = 0; d < 3; ++d) {
        const int i = a.lmn[d], j = b.lmn[d];
        const double q = a.center[d] - b.center[d];
        const double sij = hermite_e(i, j, 0, q, ae, be);
        const double sij_p2 = hermite_e(i, j + 2, 0, q, ae, be);
        const double sij_m2 = j >= 2 ? hermite_e(i, j - 2, 0, q, ae, be) : 0.0;
        s0[d] = sij;
        kin[d] = -2.0 * be * be * sij_p2 + be * (2 * j + 1) * sij -
                 0.5 * j * (j - 1) * sij_m2;
      }
      t_total += coeff * std::pow(kPi / p, 1.5) *
                 (kin[0] * s0[1] * s0[2] + s0[0] * kin[1] * s0[2] +
                  s0[0] * s0[1] * kin[2]);
    }
  }
  return t_total;
}

double nuclear_integral(const BasisFunction& a, const BasisFunction& b,
                        const std::array<double, 3>& nucleus, int z) {
  CoulombScratch scratch;
  return nuclear_from_pairs(make_pairs(a, b), nucleus, z, scratch);
}

double eri_integral(const BasisFunction& a, const BasisFunction& b,
                    const BasisFunction& c, const BasisFunction& d) {
  CoulombScratch scratch;
  return eri_from_pairs(make_pairs(a, b), make_pairs(c, d), scratch);
}

IntegralTables compute_integrals(const Molecule& molecule, const BasisSet& basis,
                                 const par::ParallelOptions& parallel) {
  OBS_SPAN("chem/compute_integrals");
  const std::size_t n = basis.size();
  IntegralTables out;
  out.overlap = la::RMatrix(n, n);
  out.kinetic = la::RMatrix(n, n);
  out.nuclear = la::RMatrix(n, n);
  out.eri = EriTable(n);

  // The pair cache, built on the caller: pair i = p (p + 1) / 2 + q (q <= p),
  // the EriTable's own pair index.
  std::vector<FunctionPair> pairs;
  std::vector<std::pair<std::size_t, std::size_t>> pair_fn;
  pairs.reserve(n * (n + 1) / 2);
  pair_fn.reserve(n * (n + 1) / 2);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q <= p; ++q) {
      pairs.push_back(make_pairs(basis[p], basis[q]));
      pair_fn.emplace_back(p, q);
    }
  }
  const std::size_t npairs = pairs.size();

  // Three passes on the pool. Every entry has one writer, the task of its
  // row, which runs the serial kernel on it, so the tables keep the serial
  // bits at every thread count. Rows go longest first, one a claim.

  // One-electron row p writes (p, q) and (q, p) for q <= p.
  par::parallel_for(parallel, 0, n, [&](std::size_t k) {
    const std::size_t p = n - 1 - k;
    CoulombScratch scratch;
    for (std::size_t q = 0; q <= p; ++q) {
      const FunctionPair& pair = pairs[p * (p + 1) / 2 + q];
      const double s = overlap_from_pairs(pair);
      const double t = kinetic_integral(basis[p], basis[q]);
      double v = 0;
      for (const Atom& atom : molecule.atoms())
        v += nuclear_from_pairs(pair, atom.xyz, atom.z, scratch);
      out.overlap(p, q) = out.overlap(q, p) = s;
      out.kinetic(p, q) = out.kinetic(q, p) = t;
      out.nuclear(p, q) = out.nuclear(q, p) = v;
    }
  });

  // Schwarz screening for the O(n^4) pass: the diagonal (ii|ii) first.
  std::vector<double> diagonal(npairs), schwarz(npairs);
  par::parallel_for(parallel, 0, npairs, [&](std::size_t i) {
    CoulombScratch scratch;
    diagonal[i] = eri_from_pairs(pairs[i], pairs[i], scratch);
    schwarz[i] = std::sqrt(std::abs(diagonal[i]));
  });

  // ERI row i writes (i|j) for j <= i; the diagonal pass has returned, so
  // every bound it reads is final and (ii|ii) is taken from it.
  constexpr double kScreen = 1e-12;
  par::parallel_for(parallel, 0, npairs, [&](std::size_t k) {
    const std::size_t i = npairs - 1 - k;
    if (schwarz[i] == 0) return;
    CoulombScratch scratch;
    for (std::size_t j = 0; j <= i; ++j) {
      if (schwarz[i] * schwarz[j] < kScreen) continue;
      const double value =
          j == i ? diagonal[i] : eri_from_pairs(pairs[i], pairs[j], scratch);
      out.eri.set(pair_fn[i].first, pair_fn[i].second, pair_fn[j].first,
                  pair_fn[j].second, value);
    }
  });
  return out;
}

}  // namespace q2::chem
