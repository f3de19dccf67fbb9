#include "sim/reference_mps.hpp"

#include <cmath>

#include "circuit/routing.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd_reference.hpp"

namespace q2::sim {
namespace {

la::CMatrix slice(const std::vector<cplx>& t, std::size_t dl, std::size_t dr,
                  int i) {
  la::CMatrix m(dl, dr);
  for (std::size_t a = 0; a < dl; ++a)
    for (std::size_t b = 0; b < dr; ++b)
      m(a, b) = t[(a * 2 + std::size_t(i)) * dr + b];
  return m;
}

}  // namespace

ReferenceMps::ReferenceMps(int n_qubits, MpsOptions options)
    : n_(n_qubits), options_(options), perm_(std::max(n_qubits, 1)) {
  require(n_qubits >= 2, "ReferenceMps: need at least two qubits");
  tensors_.resize(n_);
  dl_.assign(n_, 1);
  dr_.assign(n_, 1);
  for (int k = 0; k < n_; ++k) {
    tensors_[k].assign(2, cplx{});
    tensors_[k][0] = 1.0;
  }
}

void ReferenceMps::apply(const circ::Gate& g, const std::vector<double>& params) {
  if (!g.is_two_qubit()) {
    const auto m = g.matrix1(params);
    const std::size_t dl = dl_[g.qubits[0]], dr = dr_[g.qubits[0]];
    std::vector<cplx>& t = tensors_[g.qubits[0]];
    for (std::size_t a = 0; a < dl; ++a)
      for (std::size_t b = 0; b < dr; ++b) {
        const cplx t0 = t[(a * 2 + 0) * dr + b];
        const cplx t1 = t[(a * 2 + 1) * dr + b];
        t[(a * 2 + 0) * dr + b] = m[0] * t0 + m[1] * t1;
        t[(a * 2 + 1) * dr + b] = m[2] * t0 + m[3] * t1;
      }
    return;
  }
  const int a = g.qubits[0], b = g.qubits[1];
  require(std::abs(a - b) == 1, "ReferenceMps::apply: gate not adjacent");
  const int left = std::min(a, b);
  apply_two_adjacent(left, g.matrix2(params), a == left);
}

void ReferenceMps::run(const circ::Circuit& c, const std::vector<double>& params) {
  require(c.n_qubits() == n_, "ReferenceMps::run: qubit count mismatch");
  const circ::Circuit routed = c.is_nearest_neighbour()
                                   ? c
                                   : circ::route_to_nearest_neighbour(c);
  for (const auto& g : routed.gates()) apply(g, params);
}

void ReferenceMps::run(const circ::CompiledCircuit& c,
                       const std::vector<double>& params) {
  require(c.gates.n_qubits() == n_, "ReferenceMps::run: qubit count mismatch");
  require(perm_.is_identity(),
          "ReferenceMps::run: compiled circuits assume the identity input "
          "placement");
  for (const auto& g : c.gates.gates()) apply(g, params);
  perm_ = c.output_perm;
}

void ReferenceMps::apply_two_adjacent(int n, const std::array<cplx, 16>& m_in,
                                      bool left_is_hi) {
  std::array<cplx, 16> o;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      for (int ip = 0; ip < 2; ++ip)
        for (int jp = 0; jp < 2; ++jp) {
          const int row = left_is_hi ? i * 2 + j : j * 2 + i;
          const int col = left_is_hi ? ip * 2 + jp : jp * 2 + ip;
          o[(i * 2 + j) * 4 + (ip * 2 + jp)] = m_in[row * 4 + col];
        }

  const std::size_t dl = dl_[n], dm = dr_[n], dr = dr_[n + 1];
  la::CMatrix bn(dl * 2, dm);
  std::copy(tensors_[n].begin(), tensors_[n].end(), bn.data());
  la::CMatrix bn1(dm, 2 * dr);
  std::copy(tensors_[n + 1].begin(), tensors_[n + 1].end(), bn1.data());
  // Naive kernel on purpose — this engine has no tuned BLAS underneath.
  la::CMatrix t;
  la::gemm_naive(bn, bn1, t);

  la::CMatrix mm(dl * 2, 2 * dr);
  for (std::size_t a = 0; a < dl; ++a)
    for (std::size_t b = 0; b < dr; ++b) {
      cplx in[4], out[4] = {};
      for (int ip = 0; ip < 2; ++ip)
        for (int jp = 0; jp < 2; ++jp)
          in[ip * 2 + jp] = t(a * 2 + ip, jp * dr + b);
      for (int r = 0; r < 4; ++r)
        for (int k = 0; k < 4; ++k) out[r] += o[r * 4 + k] * in[k];
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) mm(a * 2 + i, j * dr + b) = out[i * 2 + j];
    }

  // Local truncated SVD without the canonical-gauge weighting: the local
  // singular values are not the state's Schmidt values, so this truncation
  // is uncontrolled — the straightforward-implementation behaviour the
  // optimized engine's Eq. (8) reweighting fixes. The decomposition itself
  // goes through the frozen scalar Jacobi oracle, the reference-LAPACK
  // analogue of the paper's swBLAS-vs-LAPACK-3.2 comparison — kept
  // independent of the optimized engine so the differential tests compare
  // two genuinely distinct implementations.
  const la::SvdResult full = la::svd_jacobi_reference(mm);
  double total = 0;
  for (double s : full.s) total += s * s;
  std::size_t k = std::min(options_.max_bond, full.s.size());
  while (k > 1 && full.s[k - 1] <= options_.svd_cutoff * full.s[0]) --k;
  double kept = 0;
  for (std::size_t i = 0; i < k; ++i) kept += full.s[i] * full.s[i];
  const double scale = total > 0 ? std::sqrt(total / std::max(kept, 1e-300))
                                 : 1.0;
  tensors_[n].assign(dl * 2 * k, cplx{});
  for (std::size_t r = 0; r < dl * 2; ++r)
    for (std::size_t c = 0; c < k; ++c)
      tensors_[n][r * k + c] = full.u(r, c) * full.s[c] * scale;
  dr_[n] = k;
  tensors_[n + 1].assign(k * 2 * dr, cplx{});
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < 2 * dr; ++c)
      tensors_[n + 1][r * (2 * dr) + c] = full.vh(r, c);
  dl_[n + 1] = k;
}

namespace {

la::CMatrix ref_transfer(const la::CMatrix& e, const std::vector<cplx>& t,
                         std::size_t dl, std::size_t dr, const cplx p[4]) {
  la::CMatrix out(dr, dr);
  for (int i = 0; i < 2; ++i) {
    la::CMatrix bi = slice(t, dl, dr, i);
    la::CMatrix ebi;
    la::gemm_naive(e, bi, ebi);
    for (int ip = 0; ip < 2; ++ip) {
      const cplx coeff = p[ip * 2 + i];
      if (coeff == cplx{}) continue;
      la::CMatrix contrib;
      la::gemm_naive(slice(t, dl, dr, ip).adjoint(), ebi, contrib);
      for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < out.cols(); ++c)
          out(r, c) += coeff * contrib(r, c);
    }
  }
  return out;
}

constexpr cplx kIdent[4] = {1, 0, 0, 1};

}  // namespace

double ReferenceMps::norm() const {
  la::CMatrix e(1, 1);
  e(0, 0) = 1.0;
  for (int s = 0; s < n_; ++s)
    e = ref_transfer(e, tensors_[s], dl_[s], dr_[s], kIdent);
  return std::sqrt(std::abs(e(0, 0).real()));
}

cplx ReferenceMps::expectation(const pauli::PauliString& p) const {
  require(int(p.n_qubits()) == n_, "ReferenceMps: qubit count mismatch");
  const pauli::PauliString ps =
      perm_.is_identity() ? p : p.permuted(perm_.site_of_map());
  // Whole-chain contraction of <psi|P|psi> over <psi|psi> — no canonical-form
  // shortcuts, by design.
  la::CMatrix e(1, 1);
  e(0, 0) = 1.0;
  la::CMatrix nrm(1, 1);
  nrm(0, 0) = 1.0;
  for (int s = 0; s < n_; ++s) {
    cplx pm[4];
    pauli::PauliString::single_qubit_matrix(ps.get(std::size_t(s)), pm);
    e = ref_transfer(e, tensors_[s], dl_[s], dr_[s], pm);
    nrm = ref_transfer(nrm, tensors_[s], dl_[s], dr_[s], kIdent);
  }
  return e(0, 0) / nrm(0, 0);
}

cplx ReferenceMps::expectation(const pauli::QubitOperator& op) const {
  cplx e{};
  for (const auto& [p, c] : op.sorted_terms()) e += c * expectation(p);
  return e;
}

std::vector<cplx> ReferenceMps::to_statevector() const {
  require(n_ <= 24, "ReferenceMps::to_statevector: too many qubits");
  std::size_t rows = 1;
  la::CMatrix acc(1, dl_[0]);
  acc(0, 0) = 1.0;
  for (int s = 0; s < n_; ++s) {
    const std::size_t dl = dl_[s], dr = dr_[s];
    la::CMatrix site(dl, 2 * dr);
    for (std::size_t a = 0; a < dl; ++a)
      for (int i = 0; i < 2; ++i)
        for (std::size_t b = 0; b < dr; ++b)
          site(a, std::size_t(i) * dr + b) =
              tensors_[s][(a * 2 + std::size_t(i)) * dr + b];
    la::CMatrix next = la::matmul(acc, site);
    rows *= 2;
    la::CMatrix re(rows, dr);
    std::copy(next.data(), next.data() + next.size(), re.data());
    acc = std::move(re);
  }
  std::vector<cplx> out(std::size_t(1) << n_);
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::size_t sv = 0;
    for (int q = 0; q < n_; ++q)
      if ((j >> (n_ - 1 - q)) & 1) sv |= std::size_t(1) << q;
    out[sv] = acc(j, 0);
  }
  if (!perm_.is_identity()) return circ::unpermute_statevector(out, perm_);
  return out;
}

std::size_t ReferenceMps::max_bond_dimension() const {
  std::size_t d = 1;
  for (int k = 0; k + 1 < n_; ++k) d = std::max(d, dr_[k]);
  return d;
}

}  // namespace q2::sim
