#include "dmet/embedding.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigh.hpp"
#include "linalg/gemm.hpp"

namespace q2::dmet {
namespace {

// Coulomb-exchange field G[D]_pq = sum_rs D_rs [(pq|rs) - (ps|rq)/2] in AO.
la::RMatrix g_field(const chem::EriTable& eri, const la::RMatrix& d) {
  const std::size_t n = d.rows();
  la::RMatrix g(n, n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      double sum = 0;
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s)
          sum += d(r, s) * (eri(p, q, r, s) - 0.5 * eri(p, r, q, s));
      g(p, q) = g(q, p) = sum;
    }
  return g;
}

// Four-index AO->embedding ERI transform with a small target dimension m.
void transform_eri(const chem::EriTable& eri, const la::RMatrix& c,
                   chem::MoIntegrals& out) {
  const std::size_t n = c.rows(), m = c.cols();
  // Quarter transforms with intermediate tensors sized n^3 m, n^2 m^2, ...
  std::vector<double> t1(n * n * n * m, 0.0);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s) {
          const double v = eri(p, q, r, s);
          if (v == 0.0) continue;
          for (std::size_t l = 0; l < m; ++l)
            t1[((p * n + q) * n + r) * m + l] += v * c(s, l);
        }
  std::vector<double> t2(n * n * m * m, 0.0);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = 0; k < m; ++k) {
          const double v = t1[((p * n + q) * n + r) * m + k];
          if (v == 0.0) continue;
          for (std::size_t l = 0; l < m; ++l)
            t2[((p * n + q) * m + k) * m + l] += v * c(r, l);
        }
  std::vector<double> t3(n * m * m * m, 0.0);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t k = 0; k < m; ++k)
        for (std::size_t l = 0; l < m; ++l) {
          const double v = t2[((p * n + q) * m + k) * m + l];
          if (v == 0.0) continue;
          for (std::size_t o = 0; o < m; ++o)
            t3[((p * m + o) * m + k) * m + l] += v * c(q, o);
        }
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t o = 0; o < m; ++o)
      for (std::size_t k = 0; k < m; ++k)
        for (std::size_t l = 0; l < m; ++l) {
          const double v = t3[((p * m + o) * m + k) * m + l];
          if (v == 0.0) continue;
          for (std::size_t w = 0; w < m; ++w)
            out.eri(w, o, k, l) += v * c(p, w);
        }
}

}  // namespace

EmbeddingProblem make_embedding(const chem::IntegralTables& ints,
                                const LowdinBasis& lb,
                                const la::RMatrix& p_oao,
                                const EmbeddingBasis& emb) {
  const std::size_t m = emb.w.cols();
  EmbeddingProblem prob;
  prob.n_fragment = emb.n_fragment;
  for (std::size_t k = 0; k < emb.n_fragment; ++k)
    prob.fragment_orbitals.push_back(k);

  // Mean-field embedding RDM (factor 2) and the frozen core density.
  la::RMatrix gamma = la::matmul(la::matmul(emb.w, p_oao, la::Op::kTrans), emb.w);
  gamma *= 2.0;
  double ne = 0;
  for (std::size_t k = 0; k < m; ++k) ne += gamma(k, k);
  // With a truncated bath the mean-field trace is not exactly integral;
  // round to the nearest closed-shell count.
  prob.n_alpha = prob.n_beta = int(std::lround(ne / 2.0));
  require(prob.n_alpha >= 0 && std::size_t(prob.n_alpha) <= m,
          "make_embedding: implausible embedding electron count");

  // D_core (OAO) = 2 P - W gamma W^T, then to AO: D_ao = X D_oao X.
  la::RMatrix d_core = p_oao;
  d_core *= 2.0;
  const la::RMatrix wg = la::matmul(emb.w, gamma);
  const la::RMatrix wgw = la::matmul(wg, emb.w, la::Op::kNone, la::Op::kTrans);
  d_core -= wgw;
  const la::RMatrix d_core_ao =
      la::matmul(la::matmul(lb.s_inv_half, d_core), lb.s_inv_half);

  const la::RMatrix g_core = g_field(ints.eri, d_core_ao);
  const la::RMatrix hcore_ao = ints.kinetic + ints.nuclear;

  // Embedding orbital AO coefficients: C = S^{-1/2} W.
  const la::RMatrix c = la::matmul(lb.s_inv_half, emb.w);

  auto project = [&](const la::RMatrix& ao_matrix) {
    return la::matmul(la::matmul(c, ao_matrix, la::Op::kTrans), c);
  };
  const la::RMatrix h_solver = project(hcore_ao + g_core);
  const la::RMatrix h_energy = project(hcore_ao + 0.5 * g_core);

  prob.solver = chem::MoIntegrals(m, 0.0);
  prob.energy = chem::MoIntegrals(m, 0.0);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q) {
      prob.solver.h(p, q) = h_solver(p, q);
      prob.energy.h(p, q) = h_energy(p, q);
    }
  transform_eri(ints.eri, c, prob.solver);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q)
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t s = 0; s < m; ++s)
          prob.energy.eri(p, q, r, s) = prob.solver.eri(p, q, r, s);
  return prob;
}

chem::MoIntegrals fragment_weighted_integrals(
    const chem::MoIntegrals& mo, const std::vector<std::size_t>& fragment) {
  const std::size_t n = mo.n_orbitals();
  std::vector<double> in_frag(n, 0.0);
  for (std::size_t f : fragment) in_frag[f] = 1.0;

  chem::MoIntegrals out(n, 0.0);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      out.h(p, q) = mo.h(p, q) * 0.5 * (in_frag[p] + in_frag[q]);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s)
          out.eri(p, q, r, s) =
              mo.eri(p, q, r, s) * 0.25 *
              (in_frag[p] + in_frag[q] + in_frag[r] + in_frag[s]);
  return out;
}

chem::MoIntegrals with_chemical_potential(
    const chem::MoIntegrals& mo, const std::vector<std::size_t>& fragment,
    double mu) {
  chem::MoIntegrals out = mo;
  for (std::size_t f : fragment) out.h(f, f) -= mu;
  return out;
}

la::RMatrix embedding_canonical_orbitals(const chem::MoIntegrals& mo,
                                         int n_occ) {
  const std::size_t m = mo.n_orbitals();
  require(std::size_t(n_occ) <= m, "embedding_canonical_orbitals: bad n_occ");
  la::RMatrix h(m, m);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q) h(p, q) = mo.h(p, q);

  la::RMatrix c = la::eigh(h).vectors;
  for (int iter = 0; iter < 60; ++iter) {
    la::RMatrix d(m, m);
    for (std::size_t p = 0; p < m; ++p)
      for (std::size_t q = 0; q < m; ++q) {
        double s = 0;
        for (int i = 0; i < n_occ; ++i)
          s += c(p, std::size_t(i)) * c(q, std::size_t(i));
        d(p, q) = 2.0 * s;
      }
    la::RMatrix f = h;
    for (std::size_t p = 0; p < m; ++p)
      for (std::size_t q = 0; q < m; ++q) {
        double g = 0;
        for (std::size_t r = 0; r < m; ++r)
          for (std::size_t s = 0; s < m; ++s)
            g += d(r, s) * (mo.eri(p, q, r, s) - 0.5 * mo.eri(p, r, q, s));
        f(p, q) += g;
      }
    const la::RMatrix c_new = la::eigh(f).vectors;
    double diff = 0;
    for (std::size_t k = 0; k < c.size(); ++k)
      diff = std::max(diff, std::abs(std::abs(c.data()[k]) -
                                     std::abs(c_new.data()[k])));
    c = c_new;
    if (diff < 1e-10) break;
  }
  // Sign gauge: eigh fixes each column only up to sign. Magnitudes within
  // kTie of the largest count as tied — symmetry-equivalent orbitals tie up
  // to rounding — and the lowest tied row decides.
  constexpr double kTie = 1e-10;
  for (std::size_t j = 0; j < m; ++j) {
    double largest = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      largest = std::max(largest, std::abs(c(i, j)));
    std::size_t top = 0;
    while (std::abs(c(top, j)) < largest - kTie) ++top;
    if (c(top, j) < 0.0)
      for (std::size_t i = 0; i < m; ++i) c(i, j) = -c(i, j);
  }
  return c;
}

chem::MoIntegrals rotate_orbitals(const chem::MoIntegrals& mo,
                                  const la::RMatrix& u) {
  const std::size_t m = mo.n_orbitals();
  require(u.rows() == m && u.cols() == m, "rotate_orbitals: shape mismatch");
  chem::MoIntegrals out(m, mo.core_energy());

  la::RMatrix h(m, m);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q) h(p, q) = mo.h(p, q);
  const la::RMatrix hr = la::matmul(la::matmul(u, h, la::Op::kTrans), u);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q) out.h(p, q) = hr(p, q);

  // Four quarter transforms over the small embedding dimension.
  std::vector<double> t1(m * m * m * m, 0.0), t2(m * m * m * m, 0.0);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q)
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t s = 0; s < m; ++s) {
          const double v = mo.eri(p, q, r, s);
          if (v == 0.0) continue;
          for (std::size_t l = 0; l < m; ++l)
            t1[((p * m + q) * m + r) * m + l] += v * u(s, l);
        }
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q)
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t l = 0; l < m; ++l) {
          const double v = t1[((p * m + q) * m + r) * m + l];
          if (v == 0.0) continue;
          for (std::size_t k = 0; k < m; ++k)
            t2[((p * m + q) * m + k) * m + l] += v * u(r, k);
        }
  std::fill(t1.begin(), t1.end(), 0.0);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = 0; q < m; ++q)
      for (std::size_t k = 0; k < m; ++k)
        for (std::size_t l = 0; l < m; ++l) {
          const double v = t2[((p * m + q) * m + k) * m + l];
          if (v == 0.0) continue;
          for (std::size_t j = 0; j < m; ++j)
            t1[((p * m + j) * m + k) * m + l] += v * u(q, j);
        }
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t k = 0; k < m; ++k)
        for (std::size_t l = 0; l < m; ++l) {
          const double v = t1[((p * m + j) * m + k) * m + l];
          if (v == 0.0) continue;
          for (std::size_t i = 0; i < m; ++i)
            out.eri(i, j, k, l) += v * u(p, i);
        }
  return out;
}

}  // namespace q2::dmet
