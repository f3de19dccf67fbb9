#include "sim/mps.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "circuit/routing.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"

namespace q2::sim {
namespace {

// Registry lookups are mutex-guarded; resolve once and cache the reference
// (instruments are never deallocated, see obs/metrics.hpp).
obs::Counter& gate_counter() {
  static obs::Counter& c = obs::Registry::global().counter("mps.gates");
  return c;
}
obs::Counter& svd_sweep_counter() {
  static obs::Counter& c = obs::Registry::global().counter("mps.svd_sweeps");
  return c;
}
obs::Histogram& bond_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "mps.bond_dim", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  return h;
}
// One "sweep" = one pass from a fresh initial environment: a standalone
// expectation is one sweep, and an MPO sweep is one for the whole sum.
// transfer_site_ops counts the environment updates: per-site transfers of a
// string, and (site, in-state) updates of an MPO sweep.
obs::Counter& transfer_sweep_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("mps.transfer_sweeps");
  return c;
}
obs::Counter& transfer_op_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("mps.transfer_site_ops");
  return c;
}
// Tensor and Schmidt-vector bytes copied into MpsRecordings.
obs::Counter& recorded_bytes_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("mps.recorded_bytes");
  return c;
}

}  // namespace

Mps::Mps(int n_qubits, MpsOptions options)
    : n_(n_qubits), options_(options), perm_(std::max(n_qubits, 1)) {
  require(n_qubits >= 2, "Mps: need at least two qubits");
  require(options_.max_bond >= 1, "Mps: max_bond must be positive");
  tensors_.resize(n_);
  dl_.assign(n_, 1);
  dr_.assign(n_, 1);
  lambda_.assign(n_ - 1, {1.0});
  for (int k = 0; k < n_; ++k) {
    tensors_[k].assign(2, cplx{});
    tensors_[k][0] = 1.0;  // |0> at each site
  }
}

Mps Mps::from_statevector(int n_qubits, const std::vector<cplx>& amps,
                          MpsOptions options) {
  require(amps.size() == (std::size_t(1) << n_qubits),
          "Mps::from_statevector: amplitude count mismatch");
  Mps mps(n_qubits, options);

  // Rearrange amplitudes into row-major site order (site 0 slowest index);
  // the state-vector convention keeps qubit q at bit q.
  const std::size_t dim = amps.size();
  std::vector<cplx> c(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    std::size_t sv = 0;
    for (int q = 0; q < n_qubits; ++q)
      if ((j >> (n_qubits - 1 - q)) & 1) sv |= std::size_t(1) << q;
    c[j] = amps[sv];
  }

  // Split off sites from the right: c = (rest) x (2 * D_right), SVD, the V
  // factor becomes the right-canonical site tensor.
  std::size_t d_right = 1;
  for (int site = n_qubits - 1; site >= 1; --site) {
    const std::size_t cols = 2 * d_right;
    const std::size_t rows = c.size() / cols;
    la::CMatrix m(rows, cols);
    std::copy(c.begin(), c.end(), m.data());
    la::TruncatedSvd f =
        la::svd_truncated(m, options.max_bond, options.svd_cutoff);
    const std::size_t k = f.s.size();
    mps.truncation_error_ += f.discarded;
    mps.tensors_[site].assign(k * cols, cplx{});
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t col = 0; col < cols; ++col)
        mps.tensors_[site][r * cols + col] = f.vh(r, col);
    mps.dl_[site] = k;
    mps.dr_[site] = d_right;
    double sn = 0;
    for (double x : f.s) sn += x * x;
    sn = std::sqrt(sn);
    mps.lambda_[site - 1].resize(k);
    for (std::size_t r = 0; r < k; ++r)
      mps.lambda_[site - 1][r] = sn > 0 ? f.s[r] / sn : 0.0;
    // carry U * S to the left
    c.assign(rows * k, cplx{});
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t col = 0; col < k; ++col)
        c[r * k + col] = f.u(r, col) * f.s[col];
    d_right = k;
  }
  mps.tensors_[0] = c;  // shape (1, 2, d_right)
  mps.dl_[0] = 1;
  mps.dr_[0] = d_right;
  // Normalize the first tensor so the state has unit norm.
  double nrm = 0;
  for (const auto& z : mps.tensors_[0]) nrm += norm2(z);
  nrm = std::sqrt(nrm);
  if (nrm > 0)
    for (auto& z : mps.tensors_[0]) z /= nrm;
  return mps;
}

std::size_t Mps::bond_dimension(int k) const {
  require(k >= 0 && k + 1 < n_, "Mps::bond_dimension: bad bond");
  return dr_[k];
}

std::size_t Mps::max_bond_dimension() const {
  std::size_t d = 1;
  for (int k = 0; k + 1 < n_; ++k) d = std::max(d, dr_[k]);
  return d;
}

std::size_t Mps::memory_bytes() const {
  std::size_t b = 0;
  for (const auto& t : tensors_) b += t.size() * sizeof(cplx);
  for (const auto& l : lambda_) b += l.size() * sizeof(double);
  return b;
}

void Mps::apply_single(int site, const std::array<cplx, 4>& m) {
  const std::size_t dl = dl_[site], dr = dr_[site];
  std::vector<cplx>& t = tensors_[site];
  for (std::size_t a = 0; a < dl; ++a) {
    for (std::size_t b = 0; b < dr; ++b) {
      const cplx t0 = t[(a * 2 + 0) * dr + b];
      const cplx t1 = t[(a * 2 + 1) * dr + b];
      t[(a * 2 + 0) * dr + b] = m[0] * t0 + m[1] * t1;
      t[(a * 2 + 1) * dr + b] = m[2] * t0 + m[3] * t1;
    }
  }
}

void Mps::apply_two_adjacent(int n, const std::array<cplx, 16>& m_in,
                             bool left_is_hi) {
  OBS_SPAN("mps/two_site");
  // O[(i j), (i' j')] with i = left site's physical index. The gate matrix is
  // given in (hi, lo) order; when the left site is the lo qubit, permute.
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
  require(dm == dl_[n + 1], "Mps: inconsistent bond dimensions");
  gate_counter().add();

  const std::size_t rows = dl * 2, cols = 2 * dr;
  std::vector<cplx>& mm = scratch_.m;
  {
    OBS_SPAN("mps/contract");

    // Eq. (7) part 1: T[(a i'), (j' b)] = sum_m Bn[a,i',m] Bn1[m,j',b]. Both
    // site tensors are already exact row-major matrices under this
    // (free, contracted) split — (dl*2) x dm and dm x (2*dr) — so the packed
    // GEMM reads them in place; no bn/bn1 staging copies.
    mm.resize(rows * cols);
    la::gemm_raw(rows, dm, cols, tensors_[n].data(), dm, la::Op::kNone,
                 tensors_[n + 1].data(), cols, la::Op::kNone, mm.data(), cols,
                 options_.parallel);

    // Eq. (7) part 2: M[(a i), (j b)] = sum_{i' j'} O[(i j), (i' j')] T,
    // applied in place (each (a, b) fiber is read fully before writeback).
    for (std::size_t a = 0; a < dl; ++a) {
      for (std::size_t b = 0; b < dr; ++b) {
        cplx in[4], out[4] = {};
        for (int ip = 0; ip < 2; ++ip)
          for (int jp = 0; jp < 2; ++jp)
            in[ip * 2 + jp] = mm[(a * 2 + ip) * cols + jp * dr + b];
        for (int r = 0; r < 4; ++r)
          for (int k = 0; k < 4; ++k) out[r] += o[r * 4 + k] * in[k];
        for (int i = 0; i < 2; ++i)
          for (int j = 0; j < 2; ++j)
            mm[(a * 2 + i) * cols + j * dr + b] = out[i * 2 + j];
      }
    }
    // Fused 4x4 gate application: per (a, b) fiber one complex 4-vector
    // matvec (16 multiply-adds = 128 flops) over 4 read + 4 written elements
    // (128 bytes). The surrounding GEMMs charge themselves.
    obs::WorkCounter::charge(std::uint64_t(dl) * dr * 128,
                             std::uint64_t(dl) * dr * 128);

    // Eq. (8): the Schmidt row weights fold into the SVD's packing pass —
    // the full weighted copy mw = mm is gone.
    if (n > 0) {
      const std::vector<double>& lam = lambda_[n - 1];
      scratch_.row_scale.resize(rows);
      for (std::size_t a = 0; a < dl; ++a) {
        scratch_.row_scale[a * 2 + 0] = lam[a];
        scratch_.row_scale[a * 2 + 1] = lam[a];
      }
    }
  }

  // Eq. (9): truncated SVD of the weighted tensor. U is never formed — the
  // Eq. (10) recovery below needs only the unweighted M and V^H.
  la::TruncatedSpectrum f;
  {
    OBS_SPAN("mps/svd");
    f = la::svd_truncated_ws(scratch_.svd, mm.data(), rows, cols, cols,
                             n > 0 ? scratch_.row_scale.data() : nullptr,
                             options_.max_bond, options_.svd_cutoff,
                             /*want_u=*/false);
  }
  svd_sweep_counter().add(std::uint64_t(f.sweeps));
  const std::size_t k = f.keep;
  bond_hist().observe(double(k));
  truncation_error_ += f.discarded;

  // Compensate the weight dropped by this truncation (relative, so it is
  // exact even when the canonical gauge has drifted and ||M'|| != 1).
  const double norm_scale = 1.0 / std::sqrt(std::max(1e-300, 1.0 - f.truncation_error));

  // New Schmidt vector on bond n (normalized).
  double kept = 0;
  for (std::size_t r = 0; r < k; ++r) kept += f.s[r] * f.s[r];
  lambda_[n].resize(k);
  {
    const double total = std::sqrt(kept);
    for (std::size_t r = 0; r < k; ++r)
      lambda_[n][r] = total > 0 ? f.s[r] / total : 0.0;
  }

  // B_{n+1} <- V (right-canonical by construction): V^H is contiguous
  // k x (2*dr), exactly the site-tensor layout.
  tensors_[n + 1].assign(f.vh, f.vh + k * cols);
  dl_[n + 1] = k;

  // Eq. (10): B_n <- M V^dagger (on the unweighted M), written straight into
  // the site storage and renormalized in place to keep the state at unit
  // norm after truncation.
  {
    OBS_SPAN("mps/contract");
    tensors_[n].assign(rows * k, cplx{});
    la::gemm_raw(rows, cols, k, mm.data(), cols, la::Op::kNone, f.vh, cols,
                 la::Op::kAdjoint, tensors_[n].data(), k, options_.parallel);
    for (auto& z : tensors_[n]) z *= norm_scale;
    dr_[n] = k;
  }
}

void Mps::apply(const circ::Gate& g, const std::vector<double>& params) {
  apply_gate(g, params, /*adjoint=*/false);
}

void Mps::apply_adjoint(const circ::Gate& g,
                        const std::vector<double>& params) {
  apply_gate(g, params, /*adjoint=*/true);
}

void Mps::apply_gate(const circ::Gate& g, const std::vector<double>& params,
                     bool adjoint) {
  // The conjugate transpose of a d x d row-major matrix.
  auto dagger = [](auto m, std::size_t d) {
    auto out = m;
    for (std::size_t r = 0; r < d; ++r)
      for (std::size_t c = 0; c < d; ++c)
        out[c * d + r] = std::conj(m[r * d + c]);
    return out;
  };
  if (!g.is_two_qubit()) {
    const std::array<cplx, 4> m = g.matrix1(params);
    apply_single(g.qubits[0], adjoint ? dagger(m, 2) : m);
    return;
  }
  const int a = g.qubits[0], b = g.qubits[1];
  require(std::abs(a - b) == 1,
          "Mps::apply: two-qubit gates must be nearest-neighbour (route first)");
  const int left = std::min(a, b);
  const std::array<cplx, 16> m = g.matrix2(params);
  apply_two_adjacent(left, adjoint ? dagger(m, 4) : m,
                     /*left_is_hi=*/a == left);
}

void Mps::run(const circ::Circuit& c, const std::vector<double>& params) {
  OBS_SPAN("mps/run");
  require(c.n_qubits() == n_, "Mps::run: qubit count mismatch");
  require(perm_.is_identity(),
          "Mps::run: engine carries a residual permutation; logical circuits "
          "can only run on an unpermuted state");
  if (c.is_nearest_neighbour()) {
    for (const auto& g : c.gates()) apply(g, params);
  } else {
    const circ::Circuit routed = circ::route_to_nearest_neighbour(c);
    for (const auto& g : routed.gates()) apply(g, params);
  }
}

void Mps::run(const circ::CompiledCircuit& c,
              const std::vector<double>& params) {
  run(c, params, 0, c.gates.size());
}

void Mps::run(const circ::CompiledCircuit& c, const std::vector<double>& params,
              std::size_t first_gate, std::size_t last_gate) {
  run_compiled(c, params, first_gate, last_gate, nullptr);
}

void Mps::run(const circ::CompiledCircuit& c, const std::vector<double>& params,
              MpsRecording& recording) {
  // Lay out the segments from the stream alone: per segment, the sites its
  // gates change (bit 1) and the bonds right of them (bit 2). A first pass
  // counts them so that every array is allocated once, at its size.
  const std::vector<circ::Gate>& gates = c.gates.gates();
  auto segments = [&](auto&& close) {
    std::vector<unsigned char> changes(std::size_t(n_), 0);
    bool open = false;  // the first parametric gate opens segment 0
    for (const circ::Gate& g : gates) {
      if (open && g.is_two_qubit()) {
        const int lo = std::min(g.qubits[0], g.qubits[1]);
        changes[std::size_t(lo)] |= 3;
        changes[std::size_t(lo) + 1] |= 1;
      } else if (open) {
        changes[std::size_t(g.qubits[0])] |= 1;
      }
      if (g.is_parametric()) {
        if (open) close(changes);
        std::fill(changes.begin(), changes.end(), 0);
        open = true;
      }
    }
    if (open) close(changes);
  };
  std::size_t n_segments = 0, n_sites = 0;
  segments([&](const std::vector<unsigned char>& changes) {
    ++n_segments;
    for (unsigned char ch : changes) n_sites += ch != 0;
  });
  recording = MpsRecording{};
  recording.n_ = n_;
  recording.ends_permuted_ = !gates.empty() && gates.back().is_parametric();
  recording.sites_.reserve(n_sites);
  recording.segments_.reserve(n_segments);
  segments([&](const std::vector<unsigned char>& changes) {
    recording.segments_.emplace_back().first = recording.sites_.size();
    for (int s = 0; s < n_; ++s)
      if (changes[std::size_t(s)])
        recording.sites_.push_back({s, (changes[std::size_t(s)] & 2) != 0});
  });
  run_compiled(c, params, 0, gates.size(), &recording);
}

void Mps::run_compiled(const circ::CompiledCircuit& c,
                       const std::vector<double>& params, std::size_t first_gate,
                       std::size_t last_gate, MpsRecording* recording) {
  OBS_SPAN("mps/run");
  require(c.gates.n_qubits() == n_, "Mps::run: qubit count mismatch");
  require(first_gate <= last_gate && last_gate <= c.gates.size(),
          "Mps::run: gate range out of bounds");
  require(perm_.is_identity(),
          "Mps::run: compiled circuits assume the identity input placement");
  const std::vector<circ::Gate>& gates = c.gates.gates();
  std::size_t segment = 0;
  for (std::size_t i = first_gate; i < last_gate; ++i) {
    apply(gates[i], params);
    if (recording && gates[i].is_parametric())
      record_segment(*recording, segment++);
  }
  if (last_gate == gates.size()) perm_ = c.output_perm;
}

void Mps::record_segment(MpsRecording& recording, std::size_t k) const {
  MpsRecording::Segment& segment = recording.segments_[k];
  const auto [begin, end] = recording.site_range(k);
  std::size_t n_tensor = 0, n_lambda = 0;
  for (std::size_t j = begin; j < end; ++j) {
    MpsRecording::Site& e = recording.sites_[j];
    const std::size_t s = std::size_t(e.site);
    e.dl = dl_[s];
    e.dr = dr_[s];
    n_tensor += tensors_[s].size();
    if (e.bond) n_lambda += lambda_[s].size();
  }
  segment.tensors.reserve(n_tensor);
  segment.lambdas.reserve(n_lambda);
  for (std::size_t j = begin; j < end; ++j) {
    const MpsRecording::Site& e = recording.sites_[j];
    const std::size_t s = std::size_t(e.site);
    segment.tensors.insert(segment.tensors.end(), tensors_[s].begin(),
                           tensors_[s].end());
    if (e.bond)
      segment.lambdas.insert(segment.lambdas.end(), lambda_[s].begin(),
                             lambda_[s].end());
  }
  segment.truncation_error = truncation_error_;
  const std::size_t bytes = n_tensor * sizeof(cplx) + n_lambda * sizeof(double);
  recording.bytes_ += bytes;
  recorded_bytes_counter().add(bytes);
}

void Mps::restore(const MpsRecording& recording, std::size_t k) {
  require(recording.n_ == n_ && k < recording.segments(),
          "Mps::restore: no such segment in this recording");
  const MpsRecording::Segment& segment = recording.segments_[k];
  const auto [begin, end] = recording.site_range(k);
  const cplx* t = segment.tensors.data();
  const double* l = segment.lambdas.data();
  for (std::size_t j = begin; j < end; ++j) {
    const MpsRecording::Site& e = recording.sites_[j];
    const std::size_t s = std::size_t(e.site), size = e.dl * 2 * e.dr;
    tensors_[s].assign(t, t + size);
    t += size;
    dl_[s] = e.dl;
    dr_[s] = e.dr;
    if (e.bond) {  // the bond right of s has dimension dr
      lambda_[s].assign(l, l + e.dr);
      l += e.dr;
    }
  }
  truncation_error_ = segment.truncation_error;
  // Only a state at the stream's end carries the output permutation.
  const bool at_end = recording.ends_permuted_ && k + 1 == recording.segments();
  if (!at_end && !perm_.is_identity()) perm_ = circ::QubitPermutation(n_);
}

namespace {

// A (dl, 2, dr) site tensor, read in place: B_i is the strided dl x dr
// matrix at base t + i*dr with row stride 2*dr, and B_i^dagger the adjoint
// of the same view, so nothing is copied out of the tensor.
struct Site {
  const cplx* t;
  std::size_t dl, dr;
  const cplx* slice(int i) const { return t + std::size_t(i) * dr; }
  std::size_t ld() const { return 2 * dr; }
};

// Transfer E across one site from the left: E' = sum_{i',i} P[i',i]
// A_{i'}^dagger (E B_i) with E a.dl x b.dl, for a bra tensor `a` and a ket
// tensor `b` (the same one for an expectation); E' (a.dr x b.dr) is written
// to `out` and `ebi` (a.dl x b.dr) is scratch. E' starts from zeros and every
// product accumulates into it (beta = 1) in the fixed (i, i') order.
void transfer(const cplx* e, Site a, Site b, const cplx p[4], cplx* ebi,
              cplx* out) {
  std::fill(out, out + a.dr * b.dr, cplx{});
  for (int i = 0; i < 2; ++i) {
    la::gemm_raw(a.dl, b.dl, b.dr, cplx{1}, e, b.dl, la::Op::kNone,
                 b.slice(i), b.ld(), la::Op::kNone, cplx{0}, ebi, b.dr);
    for (int ip = 0; ip < 2; ++ip) {
      const cplx coeff = p[ip * 2 + i];
      if (coeff == cplx{}) continue;
      la::gemm_raw(a.dr, a.dl, b.dr, coeff, a.slice(ip), a.ld(),
                   la::Op::kAdjoint, ebi, b.dr, la::Op::kNone, cplx{1}, out,
                   b.dr);
    }
  }
}

void transfer(const cplx* e, Site t, const cplx p[4], cplx* ebi, cplx* out) {
  transfer(e, t, t, p, ebi, out);
}

// Transfer R across one site from the right with the identity:
// R' = sum_i B_i R A_i^dagger with R b.dr x a.dr (ket rows, bra columns);
// R' (b.dl x a.dl) is written to `out`, `rb` (b.dl x a.dr) is scratch.
void transfer_right(const cplx* r, Site a, Site b, cplx* rb, cplx* out) {
  std::fill(out, out + b.dl * a.dl, cplx{});
  for (int i = 0; i < 2; ++i) {
    la::gemm_raw(b.dl, b.dr, a.dr, cplx{1}, b.slice(i), b.ld(), la::Op::kNone,
                 r, a.dr, la::Op::kNone, cplx{0}, rb, a.dr);
    la::gemm_raw(b.dl, a.dr, a.dl, cplx{1}, rb, a.dr, la::Op::kNone,
                 a.slice(i), a.ld(), la::Op::kAdjoint, cplx{1}, out, a.dl);
  }
}

cplx trace(const cplx* e, std::size_t d) {
  cplx tr{};
  for (std::size_t a = 0; a < d; ++a) tr += e[a * d + a];
  return tr;
}

constexpr cplx kIdent[4] = {1, 0, 0, 1};

// Letters whose matrix is diagonal, as bits indexed by pauli::P: they read
// the blocks C00 and C11, the others C01 and C10.
constexpr unsigned kDiagonalLetters =
    1u << unsigned(pauli::P::I) | 1u << unsigned(pauli::P::Z);

// T_σ = Σ σ_{i'i} C_{i'i} (dr x dr) from the blocks of the 2dr x 2dr matrix
// C = [B_0 | B_1]^† E [B_0 | B_1], block (i', i) at c + i'·dr·2dr + i·dr.
void letter_transfer(pauli::P letter, const cplx* c, std::size_t dr,
                     cplx* out) {
  const std::size_t w = 2 * dr;
  const bool diag = (kDiagonalLetters >> unsigned(letter)) & 1u;
  const cplx* a = diag ? c : c + dr;                    // C00 or C01
  const cplx* b = diag ? c + dr * w + dr : c + dr * w;  // C11 or C10
  for (std::size_t r = 0; r < dr; ++r)
    for (std::size_t col = 0; col < dr; ++col) {
      const cplx x = a[r * w + col], y = b[r * w + col];
      cplx& o = out[r * dr + col];
      switch (letter) {
        case pauli::P::I:
        case pauli::P::X: o = x + y; break;
        case pauli::P::Z: o = x - y; break;
        case pauli::P::Y: {  // -i C01 + i C10
          const cplx d = y - x;
          o = cplx(-d.imag(), d.real());
          break;
        }
      }
    }
}

// out += a x over n entries, spelled out on the real and imaginary parts
// (std::complex's product carries a NaN-recovery branch per element).
void axpy(cplx a, const cplx* x, cplx* out, std::size_t n) {
  const double ar = a.real(), ai = a.imag();
  const double* xd = reinterpret_cast<const double*>(x);
  double* od = reinterpret_cast<double*>(out);
  for (std::size_t j = 0; j < 2 * n; j += 2) {
    const double xr = xd[j], xi = xd[j + 1];
    od[j] += ar * xr - ai * xi;
    od[j + 1] += ar * xi + ai * xr;
  }
}

}  // namespace

// Left environment at bond lo-1: diag(lambda^2) in the canonical gauge.
void Mps::initial_environment(std::size_t lo, std::vector<cplx>& e) const {
  const std::size_t d = dl_[lo];
  e.assign(d * d, cplx{});
  if (lo == 0) {
    e[0] = 1.0;
    return;
  }
  const std::vector<double>& lam = lambda_[lo - 1];
  for (std::size_t a = 0; a < d; ++a) e[a * d + a] = lam[a] * lam[a];
}

double Mps::norm() const {
  std::vector<cplx> e{cplx{1}}, next, ebi;
  for (int s = 0; s < n_; ++s) {
    next.resize(dr_[s] * dr_[s]);
    ebi.resize(dl_[s] * dr_[s]);
    transfer(e.data(), {tensors_[s].data(), dl_[s], dr_[s]}, kIdent,
             ebi.data(), next.data());
    e.swap(next);
  }
  return std::sqrt(std::abs(e[0].real()));
}

cplx Mps::expectation(const pauli::PauliString& p) const {
  OBS_SPAN("mps/expectation");
  require(int(p.n_qubits()) == n_, "Mps::expectation: qubit count mismatch");
  if (p.is_identity()) {
    const double nn = norm();
    return nn * nn;
  }
  // <psi|P|psi> on a permuted state equals the expectation of the
  // site-relabelled string on the raw tensors.
  pauli::PauliString permuted_storage;
  const pauli::PauliString& ps =
      perm_.is_identity()
          ? p
          : (permuted_storage = p.permuted(perm_.site_of_map()));
  const auto [lo, hi] = ps.support_range();
  transfer_sweep_counter().add();
  transfer_op_counter().add(std::uint64_t(hi - lo + 1));

  std::vector<cplx> e, next, ebi;
  initial_environment(lo, e);
  std::uint64_t streamed = 0;
  for (std::size_t s = lo; s <= hi; ++s) {
    cplx pm[4];
    pauli::PauliString::single_qubit_matrix(ps.get(s), pm);
    next.resize(dr_[s] * dr_[s]);
    ebi.resize(dl_[s] * dr_[s]);
    transfer(e.data(), {tensors_[s].data(), dl_[s], dr_[s]}, pm, ebi.data(),
             next.data());
    e.swap(next);
    streamed += std::uint64_t(tensors_[s].size()) * sizeof(cplx);
  }
  // Right of the support everything contracts to the identity: take trace.
  const cplx tr = trace(e.data(), dr_[hi]);
  // The sweep's own cost beyond the nested GEMMs: the state stream over the
  // support plus the closing trace (one complex add per diagonal element).
  obs::WorkCounter::charge(2 * std::uint64_t(dr_[hi]), streamed);
  return tr;
}

cplx Mps::expectation(const pauli::QubitOperator& op) const {
  require(int(op.n_qubits()) == n_, "Mps::expectation: qubit count mismatch");
  return sweep_mpo(
      pauli::build_measurement_mpo(op.sorted_terms(), perm_.site_of_map()));
}

cplx Mps::sweep_mpo(const pauli::MeasurementMpo& mpo) const {
  OBS_SPAN("mps/sweep_mpo");
  require(mpo.site_of == perm_.site_of_map(),
          "Mps::sweep_mpo: the MPO was built for another qubit permutation");
  require(mpo.bond.size() + 1 == std::size_t(n_) &&
              mpo.first_edge.size() == std::size_t(n_) + 1,
          "Mps::sweep_mpo: malformed MPO");
  using Edge = pauli::MeasurementMpo::Edge;
  // The environments of the cuts left and right of a site share one buffer
  // sized for the widest such pair, not twice the widest cut: a site reads
  // its in-states from one end and writes its out-states from the other,
  // where the next site reads them.
  auto cut_size = [&](int k) {  // environments on the cut right of site k
    return k >= 0 && k + 1 < n_ ? mpo.bond[k] * dr_[k] * dr_[k] : 0;
  };
  std::size_t cap = 0, dmax = 1;
  for (int k = 0; k < n_; ++k) {
    dmax = std::max({dmax, dl_[k], dr_[k]});
    cap = std::max(cap, cut_size(k - 1) + cut_size(k));
  }
  std::vector<cplx> envs(cap), vacuum;
  std::vector<cplx> et(2 * dmax * dmax), c(4 * dmax * dmax),
      letters(4 * dmax * dmax);
  cplx sum{};
  std::uint64_t updates = 0, flops = 0, bytes = 0;
  cplx* left = envs.data();
  for (int k = 0; k < n_; ++k) {
    const std::size_t dl = dl_[k], dr = dr_[k], w = 2 * dr, dd = dr * dr;
    const cplx* t = tensors_[k].data();
    cplx* const right = k % 2 == 0 ? envs.data()
                                   : envs.data() + cap - cut_size(k);
    std::fill_n(right, cut_size(k), cplx{});
    const Edge* e = mpo.edges.data() + mpo.first_edge[k];
    const Edge* const end = mpo.edges.data() + mpo.first_edge[k + 1];
    while (e != end) {
      const Edge* group = e;
      unsigned used = 0;  // bit per letter of this in-state's edges
      for (; e != end && e->in == group->in; ++e)
        used |= 1u << unsigned(e->letter);
      const bool diag = used & kDiagonalLetters, off = used & ~kDiagonalLetters;
      const cplx* env;
      if (group->in == pauli::MeasurementMpo::kVacuum) {
        initial_environment(std::size_t(k), vacuum);
        env = vacuum.data();
      } else {
        env = left + std::size_t(group->in) * dl * dl;
      }
      // [E B_0 | E B_1]: the site tensor read in place as a dl x 2dr matrix.
      la::gemm_raw(dl, dl, w, env, dl, la::Op::kNone, t, w, la::Op::kNone,
                   et.data(), w);
      if (diag && off) {
        la::gemm_raw(w, dl, w, t, w, la::Op::kAdjoint, et.data(), w,
                     la::Op::kNone, c.data(), w);
      } else {
        // Only C00 and C11, or only C01 and C10: B_{i'} through the same
        // strided view, one block each.
        for (std::size_t i = 0; i < 2; ++i) {
          const std::size_t ip = diag ? i : 1 - i;
          la::gemm_raw(dr, dl, dr, t + ip * dr, w, la::Op::kAdjoint,
                       et.data() + i * dr, w, la::Op::kNone,
                       c.data() + ip * dr * w + i * dr, w);
        }
      }
      for (unsigned l = 0; l < 4; ++l)
        if (used & (1u << l)) {
          letter_transfer(pauli::P(l), c.data(), dr, letters.data() + l * dd);
          flops += 2 * dd;
          bytes += 3 * dd * sizeof(cplx);
        }
      for (; group != e; ++group) {
        const cplx* tl = letters.data() + std::size_t(group->letter) * dd;
        if (group->out == pauli::MeasurementMpo::kClose) {
          sum += group->coeff * trace(tl, dr);
          flops += 2 * dr + 8;
        } else {
          axpy(group->coeff, tl, right + std::size_t(group->out) * dd, dd);
          flops += 8 * dd;
          bytes += 3 * dd * sizeof(cplx);
        }
      }
      ++updates;
    }
    left = right;
  }
  transfer_sweep_counter().add();
  transfer_op_counter().add(updates);
  obs::WorkCounter::charge(flops, bytes);
  return sum;
}

Mps Mps::apply_mpo(const pauli::MeasurementMpo& mpo, double& norm) const {
  OBS_SPAN("mps/apply_mpo");
  require(mpo.site_of == perm_.site_of_map(),
          "Mps::apply_mpo: the MPO was built for another qubit permutation");
  require(mpo.bond.size() + 1 == std::size_t(n_) &&
              mpo.first_edge.size() == std::size_t(n_) + 1,
          "Mps::apply_mpo: malformed MPO");
  using Mpo = pauli::MeasurementMpo;
  // Channels on the cut right of site k (k = -1: the left boundary): the
  // MPO's explicit states, then the vacuum (no letter yet) unless k is the
  // last site, then the done channel (a closed term) unless k is -1. The
  // left boundary is the vacuum alone, the right one the done channel alone.
  auto explicit_states = [&](int k) {
    return k >= 0 && k + 1 < n_ ? mpo.bond[std::size_t(k)] : 0;
  };
  auto vacuum = [&](int k) { return explicit_states(k); };
  auto done = [&](int k) { return explicit_states(k) + (k + 1 < n_ ? 1 : 0); };
  auto width = [&](int k) { return done(k) + (k >= 0 ? 1 : 0); };
  struct Step {
    std::size_t in, out;
    pauli::P letter;
    cplx coeff;
  };
  constexpr std::size_t kAll = ~std::size_t{0};
  la::SvdWorkspace ws;

  Mps out(n_, options_);
  out.perm_ = perm_;
  // Pass 1, left to right. `rest` (r x width(k-1)·dl) is the state right
  // of the orthonormal tensors written so far, indexed by (channel, psi
  // bond); site k turns it into M[(rho, i), (channel', beta)]. It is the
  // previous site's S·V^H, scaled in place in the SVD workspace: the next
  // SVD overwrites V^H only after M is formed, and so the widest cut holds
  // one copy of it fewer.
  const cplx one{1};
  const cplx* rest = &one;
  std::size_t rest_size = 1;
  std::vector<cplx> g, m;
  std::vector<Step> steps;
  std::size_t r = 1;
  for (int k = 0; k < n_; ++k) {
    const std::size_t dl = dl_[k], dr = dr_[k], wl = width(k - 1),
                      wr = width(k), cols = wr * dr;
    steps.clear();
    for (std::size_t e = mpo.first_edge[k]; e < mpo.first_edge[k + 1]; ++e) {
      const Mpo::Edge& edge = mpo.edges[e];
      steps.push_back({edge.in == Mpo::kVacuum ? vacuum(k - 1) : edge.in,
                       edge.out == Mpo::kClose ? done(k) : edge.out,
                       edge.letter, edge.coeff});
    }
    if (k + 1 < n_)
      steps.push_back({vacuum(k - 1), vacuum(k), pauli::P::I, 1});
    if (k > 0) steps.push_back({done(k - 1), done(k), pauli::P::I, 1});
    std::stable_sort(steps.begin(), steps.end(),
                     [](const Step& a, const Step& b) { return a.in < b.in; });
    m.assign(r * 2 * cols, cplx{});
    g.resize(r * 2 * dr);
    for (std::size_t j = 0; j < steps.size(); ++j) {
      // G = rest's channel block times [B_0 | B_1], once per in-channel.
      if (j == 0 || steps[j].in != steps[j - 1].in)
        la::gemm_raw(r, dl, 2 * dr, rest + steps[j].in * dl, wl * dl,
                     la::Op::kNone, tensors_[k].data(), 2 * dr, la::Op::kNone,
                     g.data(), 2 * dr, options_.parallel);
      cplx sigma[4];
      pauli::PauliString::single_qubit_matrix(steps[j].letter, sigma);
      for (int i = 0; i < 2; ++i)
        for (int ip = 0; ip < 2; ++ip) {
          const cplx f = steps[j].coeff * sigma[i * 2 + ip];
          if (f == cplx{}) continue;
          for (std::size_t rho = 0; rho < r; ++rho)
            axpy(f, g.data() + rho * 2 * dr + std::size_t(ip) * dr,
                 m.data() + (rho * 2 + std::size_t(i)) * cols +
                     steps[j].out * dr,
                 dr);
        }
    }
    const la::TruncatedSpectrum f =
        la::svd_truncated_ws(ws, m.data(), r * 2, cols, cols, nullptr, kAll,
                             options_.svd_cutoff, /*want_u=*/true);
    out.truncation_error_ += f.discarded;
    out.tensors_[k].assign(f.u, f.u + r * 2 * f.keep);
    out.dl_[k] = r;
    out.dr_[k] = f.keep;
    cplx* sv = ws.out_vh.data();  // f.vh, keep x cols
    for (std::size_t j = 0; j < f.keep; ++j)
      for (std::size_t c = 0; c < cols; ++c)
        sv[j * cols + c] = f.s[j] * sv[j * cols + c];
    rest = sv;
    rest_size = f.keep * cols;
    r = f.keep;
  }
  // Pass 2, right to left: carry (r x r') holds U·S of the cut right of
  // site k. M = A_k · carry, read as dl x 2r', splits into a right-canonical
  // V^H and the Schmidt values of the cut left of k.
  std::vector<cplx> carry(rest, rest + rest_size);
  std::size_t rp = 1;  // carry is the 1 x 1 remainder of pass 1
  for (int k = n_ - 1; k >= 0; --k) {
    const std::size_t dl = out.dl_[k], dr = out.dr_[k];
    m.resize(dl * 2 * rp);
    la::gemm_raw(dl * 2, dr, rp, out.tensors_[k].data(), dr, la::Op::kNone,
                 carry.data(), rp, la::Op::kNone, m.data(), rp,
                 options_.parallel);
    if (k == 0) {
      double sum = 0;
      for (const cplx& z : m) sum += norm2(z);
      norm = std::sqrt(sum);
      for (cplx& z : m) z = norm > 0 ? z / norm : cplx{};
      out.tensors_[0] = m;
      out.dr_[0] = rp;
      break;
    }
    const la::TruncatedSpectrum f =
        la::svd_truncated_ws(ws, m.data(), dl, 2 * rp, 2 * rp, nullptr, kAll,
                             options_.svd_cutoff, /*want_u=*/true);
    out.truncation_error_ += f.discarded;
    out.tensors_[k].assign(f.vh, f.vh + f.keep * 2 * rp);
    out.dl_[k] = f.keep;
    out.dr_[k] = rp;
    double kept = 0;
    for (std::size_t j = 0; j < f.keep; ++j) kept += f.s[j] * f.s[j];
    kept = std::sqrt(kept);
    std::vector<double>& lam = out.lambda_[std::size_t(k) - 1];
    lam.resize(f.keep);
    for (std::size_t j = 0; j < f.keep; ++j)
      lam[j] = kept > 0 ? f.s[j] / kept : 0.0;
    carry.resize(dl * f.keep);
    for (std::size_t a = 0; a < dl; ++a)
      for (std::size_t j = 0; j < f.keep; ++j)
        carry[a * f.keep + j] = f.u[a * f.keep + j] * f.s[j];
    rp = f.keep;
  }
  return out;
}

std::vector<cplx> Mps::to_statevector() const {
  require(n_ <= 24, "Mps::to_statevector: too many qubits");
  // Accumulate left-to-right: rows enumerate (i_0 ... i_s) with i_0 slowest.
  // The (a, i, b) -> (a, (i b)) regrouping is the identity on the flat
  // row-major storage, so each site tensor feeds the packed kernel in place
  // as a dl x (2*dr) matrix, and the (rows, 2*dr) -> (2*rows, dr) reshape is
  // a reinterpretation of the contiguous product — no staging copies.
  std::size_t rows = 1;
  std::vector<cplx> acc(dl_[0], cplx{});
  acc[0] = 1.0;
  std::vector<cplx> next;
  for (int s = 0; s < n_; ++s) {
    const std::size_t dl = dl_[s], dr = dr_[s];
    next.resize(rows * 2 * dr);
    la::gemm_raw(rows, dl, 2 * dr, acc.data(), dl, la::Op::kNone,
                 tensors_[s].data(), 2 * dr, la::Op::kNone, next.data(),
                 2 * dr);
    rows *= 2;
    acc.swap(next);
  }
  // acc is (2^n, 1) with site 0 as the most significant index; remap to the
  // state-vector convention (qubit q at bit q), then undo any residual
  // compiled-run permutation so amplitudes are indexed by logical qubits.
  std::vector<cplx> out(std::size_t(1) << n_);
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::size_t sv = 0;
    for (int q = 0; q < n_; ++q)
      if ((j >> (n_ - 1 - q)) & 1) sv |= std::size_t(1) << q;
    out[sv] = acc[j];
  }
  if (!perm_.is_identity()) return circ::unpermute_statevector(out, perm_);
  return out;
}

MpsState Mps::export_state() const {
  require(perm_.is_identity(),
          "Mps::export_state: the checkpoint format stores site tensors "
          "only; run logical (unpermuted) circuits before checkpointing");
  MpsState s;
  s.n_qubits = n_;
  s.max_bond = options_.max_bond;
  s.svd_cutoff = options_.svd_cutoff;
  s.tensors = tensors_;
  s.dl = dl_;
  s.dr = dr_;
  s.lambda = lambda_;
  s.truncation_error = truncation_error_;
  return s;
}

Mps Mps::import_state(const MpsState& state,
                      const par::ParallelOptions& parallel) {
  require(state.n_qubits >= 2, "Mps::import_state: need at least two qubits");
  const std::size_t n = std::size_t(state.n_qubits);
  require(state.tensors.size() == n && state.dl.size() == n &&
              state.dr.size() == n && state.lambda.size() == n - 1,
          "Mps::import_state: inconsistent per-site array sizes");
  for (std::size_t k = 0; k < n; ++k) {
    require(state.tensors[k].size() == state.dl[k] * 2 * state.dr[k],
            "Mps::import_state: site tensor size mismatch");
    if (k + 1 < n)
      require(state.dr[k] == state.dl[k + 1] &&
                  state.lambda[k].size() == state.dr[k],
              "Mps::import_state: bond dimension mismatch");
  }
  MpsOptions options;
  options.max_bond = state.max_bond;
  options.svd_cutoff = state.svd_cutoff;
  options.parallel = parallel;
  Mps mps(state.n_qubits, options);
  mps.tensors_ = state.tensors;
  mps.dl_ = state.dl;
  mps.dr_ = state.dr;
  mps.lambda_ = state.lambda;
  mps.truncation_error_ = state.truncation_error;
  return mps;
}

MpsOverlap::MpsOverlap(const Mps& bra, const Mps& ket)
    : bra_(bra),
      ket_(ket),
      left_(std::size_t(ket.n_)),
      right_(std::size_t(ket.n_)),
      right_valid_(ket.n_ - 1) {
  require(bra.n_ == ket.n_, "MpsOverlap: qubit count mismatch");
  left_[0] = {cplx{1}};
  right_[std::size_t(ket.n_) - 1] = {cplx{1}};
  transfer_sweep_counter().add();
}

void MpsOverlap::touched(int lo, int hi) {
  require(0 <= lo && lo <= hi && hi < ket_.n_, "MpsOverlap: bad site range");
  left_valid_ = std::min(left_valid_, lo);
  right_valid_ = std::max(right_valid_, hi);
}

cplx MpsOverlap::local(int site, const std::array<cplx, 4>& op) {
  require(0 <= site && site < ket_.n_, "MpsOverlap: bad site");
  auto at = [](const Mps& m, int s) {
    const std::size_t k = std::size_t(s);
    return Site{m.tensors_[k].data(), m.dl_[k], m.dr_[k]};
  };
  std::uint64_t updates = 0;
  for (; left_valid_ < site; ++left_valid_, ++updates) {
    const Site a = at(bra_, left_valid_), b = at(ket_, left_valid_);
    scratch_.resize(a.dl * b.dr);
    left_[left_valid_ + 1].resize(a.dr * b.dr);
    transfer(left_[left_valid_].data(), a, b, kIdent, scratch_.data(),
             left_[left_valid_ + 1].data());
  }
  for (; right_valid_ > site; --right_valid_, ++updates) {
    const Site a = at(bra_, right_valid_), b = at(ket_, right_valid_);
    scratch_.resize(b.dl * a.dr);
    right_[right_valid_ - 1].resize(b.dl * a.dl);
    transfer_right(right_[right_valid_].data(), a, b, scratch_.data(),
                   right_[right_valid_ - 1].data());
  }
  // <bra|op|ket> = tr(E R), E = sum op[i',i] A_{i'}^dagger L B_i.
  const Site a = at(bra_, site), b = at(ket_, site);
  scratch_.resize(a.dl * b.dr);
  insert_.resize(a.dr * b.dr);
  transfer(left_[site].data(), a, b, op.data(), scratch_.data(),
           insert_.data());
  ++updates;
  const std::vector<cplx>& r = right_[site];
  cplx sum{};
  for (std::size_t c = 0; c < a.dr; ++c)
    for (std::size_t d = 0; d < b.dr; ++d)
      sum += insert_[c * b.dr + d] * r[d * a.dr + c];
  transfer_op_counter().add(updates);
  return sum;
}

}  // namespace q2::sim
