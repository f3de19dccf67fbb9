#include "chem/integrals.hpp"

#include <algorithm>
#include <cmath>

#include "chem/boys.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

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
// allocate nothing: the Boys values and two R^n layers.
struct CoulombScratch {
  std::vector<double> f, r;
};

// Hermite Coulomb tensor R^0_{tuv}(p, PC) built by downward-n recursion.
// Returns R[t][u][v] for t <= tmax etc. (row-major), held in `w` until the
// next call.
const double* hermite_coulomb(int tmax, int umax, int vmax, double p,
                              const std::array<double, 3>& pc,
                              CoulombScratch& w) {
  const double r2 = pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2];
  const int nmax = tmax + umax + vmax;
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
};

std::vector<PrimPair> make_pairs(const BasisFunction& a, const BasisFunction& b) {
  std::vector<PrimPair> pairs;
  pairs.reserve(a.exponents.size() * b.exponents.size());
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
      pairs.push_back(std::move(pp));
    }
  }
  return pairs;
}

}  // namespace

EriTable::EriTable(std::size_t n) : n_(n) {
  const std::size_t np = n * (n + 1) / 2;
  data_.assign(np * (np + 1) / 2, 0.0);
}

double overlap_integral(const BasisFunction& a, const BasisFunction& b) {
  double s = 0;
  for (const PrimPair& pp : make_pairs(a, b)) {
    s += pp.coeff * pp.e[0][0] * pp.e[1][0] * pp.e[2][0] *
         std::pow(kPi / pp.p, 1.5);
  }
  return s;
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
  const int tmax = a.lmn[0] + b.lmn[0];
  const int umax = a.lmn[1] + b.lmn[1];
  const int vmax = a.lmn[2] + b.lmn[2];
  CoulombScratch scratch;
  double v_total = 0;
  for (const PrimPair& pp : make_pairs(a, b)) {
    std::array<double, 3> pc;
    for (int d = 0; d < 3; ++d) pc[d] = pp.center[d] - nucleus[d];
    const double* r = hermite_coulomb(tmax, umax, vmax, pp.p, pc, scratch);
    auto idx = [&](int t, int u, int v) {
      return std::size_t((t * (umax + 1) + u) * (vmax + 1) + v);
    };
    double sum = 0;
    for (int t = 0; t <= tmax; ++t)
      for (int u = 0; u <= umax; ++u)
        for (int v = 0; v <= vmax; ++v)
          sum += pp.e[0][std::size_t(t)] * pp.e[1][std::size_t(u)] *
                 pp.e[2][std::size_t(v)] * r[idx(t, u, v)];
    v_total += pp.coeff * (2.0 * kPi / pp.p) * sum;
  }
  return -double(z) * v_total;
}

namespace {

double eri_from_pairs(const std::vector<PrimPair>& bra, int tb, int ub, int vb,
                      const std::vector<PrimPair>& ket, int tk, int uk, int vk,
                      CoulombScratch& scratch) {
  double total = 0;
  for (const PrimPair& b : bra) {
    for (const PrimPair& k : ket) {
      const double alpha = b.p * k.p / (b.p + k.p);
      std::array<double, 3> pq;
      for (int d = 0; d < 3; ++d) pq[d] = b.center[d] - k.center[d];
      const double* r =
          hermite_coulomb(tb + tk, ub + uk, vb + vk, alpha, pq, scratch);
      const int du = ub + uk + 1, dv = vb + vk + 1;
      auto idx = [&](int t, int u, int v) {
        return std::size_t((t * du + u) * dv + v);
      };
      double sum = 0;
      for (int t = 0; t <= tb; ++t)
        for (int u = 0; u <= ub; ++u)
          for (int v = 0; v <= vb; ++v) {
            const double eb = b.e[0][std::size_t(t)] * b.e[1][std::size_t(u)] *
                              b.e[2][std::size_t(v)];
            if (eb == 0.0) continue;
            for (int tt = 0; tt <= tk; ++tt)
              for (int uu = 0; uu <= uk; ++uu)
                for (int vv = 0; vv <= vk; ++vv) {
                  const double ek = k.e[0][std::size_t(tt)] *
                                    k.e[1][std::size_t(uu)] *
                                    k.e[2][std::size_t(vv)];
                  if (ek == 0.0) continue;
                  const double sign = ((tt + uu + vv) % 2) ? -1.0 : 1.0;
                  sum += eb * ek * sign * r[idx(t + tt, u + uu, v + vv)];
                }
          }
      total += b.coeff * k.coeff * sum * 2.0 * std::pow(kPi, 2.5) /
               (b.p * k.p * std::sqrt(b.p + k.p));
    }
  }
  return total;
}

}  // namespace

double eri_integral(const BasisFunction& a, const BasisFunction& b,
                    const BasisFunction& c, const BasisFunction& d) {
  const auto bra = make_pairs(a, b);
  const auto ket = make_pairs(c, d);
  CoulombScratch scratch;
  return eri_from_pairs(bra, a.lmn[0] + b.lmn[0], a.lmn[1] + b.lmn[1],
                        a.lmn[2] + b.lmn[2], ket, c.lmn[0] + d.lmn[0],
                        c.lmn[1] + d.lmn[1], c.lmn[2] + d.lmn[2], scratch);
}

IntegralTables compute_integrals(const Molecule& molecule, const BasisSet& basis) {
  OBS_SPAN("chem/compute_integrals");
  const std::size_t n = basis.size();
  IntegralTables out;
  out.overlap = la::RMatrix(n, n);
  out.kinetic = la::RMatrix(n, n);
  out.nuclear = la::RMatrix(n, n);
  out.eri = EriTable(n);

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q <= p; ++q) {
      const double s = overlap_integral(basis[p], basis[q]);
      const double t = kinetic_integral(basis[p], basis[q]);
      double v = 0;
      for (const Atom& atom : molecule.atoms())
        v += nuclear_integral(basis[p], basis[q], atom.xyz, atom.z);
      out.overlap(p, q) = out.overlap(q, p) = s;
      out.kinetic(p, q) = out.kinetic(q, p) = t;
      out.nuclear(p, q) = out.nuclear(q, p) = v;
    }
  }

  // Pair cache + Schwarz screening for the O(n^4) ERI pass.
  std::vector<std::vector<PrimPair>> pair_cache;
  std::vector<std::array<int, 3>> pair_l;
  std::vector<std::pair<std::size_t, std::size_t>> pair_fn;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q <= p; ++q) {
      pair_cache.push_back(make_pairs(basis[p], basis[q]));
      pair_l.push_back({basis[p].lmn[0] + basis[q].lmn[0],
                        basis[p].lmn[1] + basis[q].lmn[1],
                        basis[p].lmn[2] + basis[q].lmn[2]});
      pair_fn.emplace_back(p, q);
    }
  }
  const std::size_t npairs = pair_cache.size();
  CoulombScratch scratch;
  std::vector<double> schwarz(npairs);
  for (std::size_t i = 0; i < npairs; ++i) {
    const auto& l = pair_l[i];
    schwarz[i] = std::sqrt(std::abs(eri_from_pairs(pair_cache[i], l[0], l[1],
                                                   l[2], pair_cache[i], l[0],
                                                   l[1], l[2], scratch)));
  }

  constexpr double kScreen = 1e-12;
  for (std::size_t i = 0; i < npairs; ++i) {
    if (schwarz[i] == 0) continue;
    for (std::size_t j = 0; j <= i; ++j) {
      if (schwarz[i] * schwarz[j] < kScreen) continue;
      const auto& li = pair_l[i];
      const auto& lj = pair_l[j];
      const double value =
          eri_from_pairs(pair_cache[i], li[0], li[1], li[2], pair_cache[j],
                         lj[0], lj[1], lj[2], scratch);
      out.eri.set(pair_fn[i].first, pair_fn[i].second, pair_fn[j].first,
                  pair_fn[j].second, value);
    }
  }
  return out;
}

}  // namespace q2::chem
