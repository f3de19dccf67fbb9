#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "linalg/householder.hpp"
#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"

namespace q2::la {

std::vector<std::vector<std::pair<std::size_t, std::size_t>>> tournament_rounds(
    std::size_t n) {
  // Modulus schedule: round k holds the pairs {i, j} with i + j == k (mod n),
  // i < j. Each index appears at most once per round (j is determined by i),
  // so rounds are disjoint, and every unordered pair lands in exactly one
  // round (its index sum mod n). Measured against the circle method this
  // round sequence converges in roughly half the sweeps on dense spectra —
  // close to the scalar cyclic ordering — because consecutive rounds pair
  // each column with adjacent partners instead of distance-grouped ones.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> rounds;
  if (n < 2) return rounds;
  rounds.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<std::pair<std::size_t, std::size_t>> round;
    round.reserve(n / 2);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (k + n - i) % n;
      if (i < j) round.emplace_back(i, j);
    }
    if (!round.empty()) rounds.push_back(std::move(round));
  }
  return rounds;
}

namespace {

// Golub-Reinsch iteration budget per singular value; running out of it is
// the non-convergence zgesvd reports as INFO > 0.
constexpr int kMaxIterations = 75;

obs::Counter& truncated_calls_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("la.svd.truncated_calls");
  return c;
}
obs::Counter& sweeps_counter() {
  static obs::Counter& c = obs::Registry::global().counter("la.svd.sweeps");
  return c;
}

[[noreturn]] void fail(const char* who, const char* what, std::size_t m,
                       std::size_t n) {
  throw Error(std::string(who) + ": " + what + " in the " +
              std::to_string(m) + "x" + std::to_string(n) + " operand");
}

// The operand A (m x n) and its tall orientation B (M x N, M >= N): B = A,
// or B = A^H when A is wide. `left` / `right` say which factors of B the
// caller uses — the QR step rotates, and the back-transformation forms,
// only those.
struct Engine {
  const char* who;
  std::size_t m, n, M, N;
  bool wide, left, right;
  int sweeps = 0;
};

// Pack B into ws.b (M x N row-major), folding the row weights in, and
// reject non-finite elements: x - x is +0 for every finite x and NaN for
// NaN or +-Inf, so one accumulator screens the whole operand.
void pack(SvdWorkspace& ws, const Engine& g, const cplx* a, std::size_t lda,
          const double* row_scale) {
  const std::size_t M = g.M, N = g.N;
  ws.b.resize(M * N);
  cplx* b = ws.b.data();
  double poison = 0.0;
  if (!g.wide) {
    for (std::size_t i = 0; i < M; ++i) {
      const cplx* src = a + i * lda;
      const double sc = row_scale ? row_scale[i] : 1.0;
      cplx* dst = b + i * N;
      for (std::size_t j = 0; j < N; ++j) {
        const double re = sc * src[j].real(), im = sc * src[j].imag();
        dst[j] = cplx{re, im};
        poison += (re - re) + (im - im);
      }
    }
  } else {
    // Column j of B = conj(row j of A); the row weight rides along.
    for (std::size_t j = 0; j < N; ++j) {
      const cplx* src = a + j * lda;
      const double sc = row_scale ? row_scale[j] : 1.0;
      for (std::size_t i = 0; i < M; ++i) {
        const double re = sc * src[i].real(), im = -sc * src[i].imag();
        b[i * N + j] = cplx{re, im};
        poison += (re - re) + (im - im);
      }
    }
  }
  if (!(poison == 0.0)) fail(g.who, "non-finite element", g.m, g.n);
}

// Householder bidiagonalization in place: B = Q_L Bd Q_R^H with Bd real
// upper bidiagonal (d on the diagonal, e[i] = Bd(i-1, i)). Q_L = H_0 ...
// H_{N-1} and Q_R = G_0 ... G_{N-2}, each H_k = I - ltau_k v v^H (v0 = 1 at
// row k, tail in lv row k) and G_k = I - rtau_k u u^H (u0 = 1 at column
// k + 1, tail in rv row k). The right reflector works on the conjugated
// row, so it also makes the last superdiagonal element real when its tail
// is empty; likewise the last left reflector phases d[N-1] real. The charge
// depends on M and N only: generating a reflector costs a squared norm and
// a complex scaling of its tail (10 flops per element), and left reflector
// k updates N - k - 1 columns of length M - k, right reflector k the
// M - k - 1 trailing rows of length N - k - 1.
void bidiagonalize(SvdWorkspace& ws, std::size_t M, std::size_t N) {
  std::uint64_t flops = 0, bytes = 0;
  auto charge = [&](std::size_t tail, std::size_t vectors) {
    flops += 10 * tail + obs::householder_apply_flops(vectors, tail + 1);
    bytes += obs::householder_apply_bytes(vectors, tail + 1);
  };
  ws.d.assign(N, 0.0);
  ws.e.assign(N, 0.0);
  ws.lv.resize(N * M);
  ws.rv.resize(N * N);
  ws.ltau.resize(N);
  ws.rtau.resize(N);
  cplx* b = ws.b.data();
  for (std::size_t k = 0; k < N; ++k) {
    const std::size_t ltail = M - k - 1;
    cplx* lv = ws.lv.data() + k * M;
    for (std::size_t i = 0; i < ltail; ++i) lv[i] = b[(k + 1 + i) * N + k];
    const hh::Reflector lr = hh::make_reflector(b[k * N + k], lv, ltail);
    ws.ltau[k] = lr.tau;
    hh::reflect_left(b, N, N, k, k + 1, lv, ltail, std::conj(lr.tau),
                     ws.hwork);
    ws.d[k] = lr.beta;
    charge(ltail, N - k - 1);
    if (k + 1 == N) break;

    const std::size_t rtail = N - k - 2;
    cplx* rv = ws.rv.data() + k * N;
    const cplx* row = b + k * N;
    for (std::size_t j = 0; j < rtail; ++j) rv[j] = std::conj(row[k + 2 + j]);
    const hh::Reflector rr =
        hh::make_reflector(std::conj(row[k + 1]), rv, rtail);
    ws.rtau[k] = rr.tau;
    hh::reflect_right(b, N, M, k + 1, k + 1, rv, rtail, rr.tau);
    ws.e[k + 1] = rr.beta;
    charge(rtail, M - k - 1);
  }
  obs::WorkCounter::charge(flops, bytes);
}

// sqrt(a^2 + b^2) without std::hypot's cost on the QR step's critical path;
// the scaled fallback covers operands whose squares would over- or
// underflow.
inline double pythag(double a, double b) {
  const double h = std::sqrt(a * a + b * b);
  if (h > 1e-150 && h < 1e150) return h;
  return std::hypot(a, b);
}

// (rp, rq) <- (c rp + s rq, c rq - s rp) on rows p, q of an n-column real
// accumulator.
inline void rotate_rows(double* w, std::size_t n, std::size_t p,
                        std::size_t q, double c, double s) {
  simd::givens(w + p * n, w + q * n, n, c, s);
}

// Implicit-shift QR (Golub-Reinsch) on the real bidiagonal, accumulating the
// left rotations into `wl` and the right ones into `wr` (each nullable: an
// unused factor is not rotated). Row j of an accumulator holds the
// coefficients of singular vector j in the Householder basis. One sweep is
// one bulge chase over the active block. On return d >= 0; work is charged
// to the enclosing span.
int bidiagonal_qr(SvdWorkspace& ws, const Engine& g, double* wl, double* wr) {
  const int n = int(g.N);
  double* d = ws.d.data();
  double* e = ws.e.data();
  // A finite operand can still overflow the reflector norms (elements near
  // 1e154 and beyond); the same x - x screen as the packing pass catches it.
  double anorm = 0.0, poison = 0.0;
  for (int i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::abs(d[i]) + std::abs(e[i]));
    poison += (d[i] - d[i]) + (e[i] - e[i]);
  }
  if (!(poison == 0.0)) fail(g.who, "bidiagonal overflow", g.m, g.n);
  const double eps = 1e-15 * anorm;
  const int per_step = (wl ? 1 : 0) + (wr ? 1 : 0);
  std::uint64_t steps = 0, row_rotations = 0;
  int sweeps = 0;

  for (int k = n - 1; k >= 0; --k) {
    for (int its = 0;; ++its) {
      // Find the active block [l, k]: e[l] negligible (or l = 0), or
      // d[l-1] negligible, in which case e[l] is chased off with left
      // rotations first.
      bool cancel = true;
      int l = k, nm = k - 1;
      for (; l >= 0; --l) {
        nm = l - 1;
        if (l == 0 || std::abs(e[l]) <= eps) {
          cancel = false;
          break;
        }
        if (std::abs(d[nm]) <= eps) break;
      }
      if (cancel) {
        double c = 0.0, s = 1.0;
        for (int i = l; i <= k; ++i) {
          const double f = s * e[i];
          e[i] = c * e[i];
          if (std::abs(f) <= eps) break;
          const double gi = d[i];
          const double h = pythag(f, gi);
          d[i] = h;
          c = gi / h;
          s = -f / h;
          ++steps;
          if (wl) {
            rotate_rows(wl, g.N, std::size_t(nm), std::size_t(i), c, s);
            ++row_rotations;
          }
        }
      }
      const double z = d[k];
      if (l == k) {
        if (z < 0.0) {
          d[k] = -z;
          if (wr)
            for (std::size_t c2 = 0; c2 < g.N; ++c2)
              wr[std::size_t(k) * g.N + c2] = -wr[std::size_t(k) * g.N + c2];
        }
        break;
      }
      if (its == kMaxIterations)
        fail(g.who, "implicit QR did not converge", g.m, g.n);
      ++sweeps;

      // Wilkinson-style shift from the trailing 2x2, then one chase.
      double x = d[l];
      nm = k - 1;
      double y = d[nm];
      double gg = e[nm], h = e[k];
      double f = ((y - z) * (y + z) + (gg - h) * (gg + h)) / (2.0 * h * y);
      gg = pythag(f, 1.0);
      const double sign_g = f >= 0 ? gg : -gg;
      f = ((x - z) * (x + z) + h * (y / (f + sign_g) - h)) / x;
      double c = 1.0, s = 1.0;
      for (int j = l; j <= nm; ++j) {
        const int i = j + 1;
        gg = e[i];
        y = d[i];
        h = s * gg;
        gg = c * gg;
        double zz = pythag(f, h);
        e[j] = zz;
        c = f / zz;
        s = h / zz;
        f = x * c + gg * s;
        gg = gg * c - x * s;
        h = y * s;
        y *= c;
        if (wr) rotate_rows(wr, g.N, std::size_t(j), std::size_t(i), c, s);
        zz = pythag(f, h);
        d[j] = zz;
        if (zz != 0.0) {
          const double zi = 1.0 / zz;
          c = f * zi;
          s = h * zi;
        }
        f = c * gg + s * y;
        x = c * y - s * gg;
        if (wl) rotate_rows(wl, g.N, std::size_t(j), std::size_t(i), c, s);
      }
      const std::uint64_t chase = std::uint64_t(nm - l + 1);
      steps += 2 * chase;
      row_rotations += std::uint64_t(per_step) * chase;
      e[l] = 0.0;
      e[k] = f;
      d[k] = x;
    }
  }
  obs::WorkCounter::charge(obs::svd_qr_flops(steps, row_rotations, g.N),
                           obs::svd_qr_bytes(row_rotations, g.N));
  return sweeps;
}

// Pack, bidiagonalize, diagonalize and sort. On return ws.d holds the
// spectrum, ws.order its stable descending permutation, and ws.wl / ws.wr
// the rotation accumulators of the requested factors.
Engine decompose(SvdWorkspace& ws, const char* who, const cplx* a,
                 std::size_t m, std::size_t n, std::size_t lda,
                 const double* row_scale, bool want_u) {
  Engine g{who, m, n, std::max(m, n), std::min(m, n), m < n, false, false};
  // Tall: A's V^H comes from B's right vectors, its U from the left ones.
  // Wide (A = B^H): A's V^H comes from B's left vectors, its U from the
  // right ones.
  g.right = g.wide ? want_u : true;
  g.left = g.wide ? true : want_u;
  const std::size_t M = g.M, N = g.N;
  pack(ws, g, a, lda, row_scale);
  bidiagonalize(ws, M, N);

  auto identity = [N](std::vector<double>& w) {
    w.assign(N * N, 0.0);
    for (std::size_t i = 0; i < N; ++i) w[i * N + i] = 1.0;
  };
  if (g.left) identity(ws.wl);
  if (g.right) identity(ws.wr);
  g.sweeps = bidiagonal_qr(ws, g, g.left ? ws.wl.data() : nullptr,
                           g.right ? ws.wr.data() : nullptr);
  sweeps_counter().add(std::uint64_t(g.sweeps));

  // Stable descending insertion sort of the indices: degenerate values keep
  // their bidiagonal order, which the truncation keep-set relies on for
  // determinism (see test_linalg). Unlike std::stable_sort it needs no
  // temporary buffer, and its O(N^2) compares are noise next to the O(N^3)
  // decomposition.
  ws.order.resize(N);
  std::size_t* order = ws.order.data();
  const double* d = ws.d.data();
  for (std::size_t i = 0; i < N; ++i) {
    std::size_t j = i;
    for (; j > 0 && d[order[j - 1]] < d[i]; --j) order[j] = order[j - 1];
    order[j] = i;
  }
  return g;
}

// Rows r < keep of conj(V_B)^T, i.e. V_B^H restricted to the kept vectors:
// row r starts as accumulator row order[r] and is pushed through
// G_{N-2}^H ... G_0^H from the right.
void right_rows(SvdWorkspace& ws, std::size_t N, std::size_t keep, cplx* out) {
  for (std::size_t r = 0; r < keep; ++r) {
    const double* w = ws.wr.data() + ws.order[r] * N;
    for (std::size_t i = 0; i < N; ++i) out[r * N + i] = w[i];
  }
  for (std::size_t k = N - 1; k-- > 0;)
    hh::reflect_right(out, N, keep, 0, k + 1, ws.rv.data() + k * N, N - k - 2,
                      std::conj(ws.rtau[k]));
}

// Kept columns of V_B as an N x keep row-major block: G_0 ... G_{N-2}
// applied from the left.
void right_cols(SvdWorkspace& ws, std::size_t N, std::size_t keep, cplx* out) {
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t r = 0; r < keep; ++r)
      out[i * keep + r] = ws.wr[ws.order[r] * N + i];
  for (std::size_t k = N - 1; k-- > 0;)
    hh::reflect_left(out, keep, keep, k + 1, 0, ws.rv.data() + k * N,
                     N - k - 2, ws.rtau[k], ws.hwork);
}

// Kept rows of U_B^H (keep x M): accumulator rows padded with zeros, pushed
// through H_{N-1}^H ... H_0^H from the right.
void left_rows(SvdWorkspace& ws, std::size_t M, std::size_t N,
               std::size_t keep, cplx* out) {
  for (std::size_t r = 0; r < keep; ++r) {
    const double* w = ws.wl.data() + ws.order[r] * N;
    cplx* dst = out + r * M;
    for (std::size_t i = 0; i < N; ++i) dst[i] = w[i];
    std::fill(dst + N, dst + M, cplx{});
  }
  for (std::size_t k = N; k-- > 0;)
    hh::reflect_right(out, M, keep, 0, k, ws.lv.data() + k * M, M - k - 1,
                      std::conj(ws.ltau[k]));
}

// Kept columns of U_B as an M x keep row-major block: H_0 ... H_{N-1}
// applied from the left.
void left_cols(SvdWorkspace& ws, std::size_t M, std::size_t N,
               std::size_t keep, cplx* out) {
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t r = 0; r < keep; ++r)
      out[i * keep + r] = ws.wl[ws.order[r] * N + i];
  std::fill(out + N * keep, out + M * keep, cplx{});
  for (std::size_t k = N; k-- > 0;)
    hh::reflect_left(out, keep, keep, k, 0, ws.lv.data() + k * M, M - k - 1,
                     ws.ltau[k], ws.hwork);
}

// Form the leading `keep` triplets into ws.out_*: the spectrum, A's V^H
// (keep x n) and, when requested, A's U (m x keep). zero_small reports
// values at or below the null tolerance as exact zeros — the full-SVD
// contract; the truncated path reports raw values.
void form_factors(SvdWorkspace& ws, const Engine& g, std::size_t keep,
                  bool zero_small) {
  const std::size_t M = g.M, N = g.N;
  const double smax = ws.d[ws.order[0]];
  const double null_tol = std::max(smax, 1.0) * 1e-14 * double(M);
  ws.out_s.resize(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    const double v = ws.d[ws.order[r]];
    ws.out_s[r] = (zero_small && v <= null_tol) ? 0.0 : v;
  }

  // Each kept vector passes once through every reflector of its side.
  std::uint64_t flops = 0, bytes = 0;
  auto charge_side = [&](std::size_t len_sum) {
    flops += obs::householder_apply_flops(keep, len_sum);
    bytes += obs::householder_apply_bytes(keep, len_sum);
  };
  const std::size_t left_len = N * M - N * (N - 1) / 2;
  const std::size_t right_len = N * (N - 1) / 2;
  ws.out_vh.resize(keep * g.n);
  if (g.wide) {
    left_rows(ws, M, N, keep, ws.out_vh.data());
    charge_side(left_len);
  } else {
    right_rows(ws, N, keep, ws.out_vh.data());
    charge_side(right_len);
  }
  if (!(g.wide ? g.right : g.left)) {
    ws.out_u.clear();
  } else {
    ws.out_u.resize(g.m * keep);
    if (g.wide) {
      right_cols(ws, N, keep, ws.out_u.data());
      charge_side(right_len);
    } else {
      left_cols(ws, M, N, keep, ws.out_u.data());
      charge_side(left_len);
    }
  }
  obs::WorkCounter::charge(flops, bytes);
}

}  // namespace

TruncatedSpectrum svd_truncated_ws(SvdWorkspace& ws, const cplx* a,
                                   std::size_t m, std::size_t n,
                                   std::size_t lda, const double* row_scale,
                                   std::size_t max_rank, double cutoff,
                                   bool want_u) {
  OBS_SPAN("la/svd");
  require(a != nullptr && m > 0 && n > 0, "svd_truncated_ws: empty operand");
  require(lda >= n, "svd_truncated_ws: lda < n");
  require(max_rank >= 1, "svd_truncated_ws: max_rank must be positive");
  truncated_calls_counter().add();

  const Engine g =
      decompose(ws, "svd_truncated_ws", a, m, n, lda, row_scale, want_u);
  const std::size_t N = g.N;
  const double* s = ws.d.data();
  const std::size_t* order = ws.order.data();

  double total = 0.0;
  for (std::size_t j = 0; j < N; ++j) total += s[j] * s[j];
  const double smax = s[order[0]];
  std::size_t keep = std::min(max_rank, N);
  while (keep > 1 && s[order[keep - 1]] <= cutoff * smax) --keep;
  // Never keep exact zeros (they carry no state weight).
  while (keep > 1 && s[order[keep - 1]] == 0.0) --keep;
  double kept = 0.0, dropped = 0.0;
  for (std::size_t r = 0; r < keep; ++r) kept += s[order[r]] * s[order[r]];
  for (std::size_t r = keep; r < N; ++r) dropped += s[order[r]] * s[order[r]];

  form_factors(ws, g, keep, /*zero_small=*/false);

  TruncatedSpectrum out;
  out.keep = keep;
  out.sweeps = g.sweeps;
  out.truncation_error = total > 0 ? std::max(0.0, 1.0 - kept / total) : 0.0;
  out.discarded = total > 0 ? dropped / total : 0.0;
  out.s = ws.out_s.data();
  out.vh = ws.out_vh.data();
  out.u = want_u ? ws.out_u.data() : nullptr;
  return out;
}

TruncatedSvd svd_truncated(const CMatrix& a, std::size_t max_rank,
                           double cutoff) {
  require(!a.empty(), "svd_truncated: empty matrix");
  // A fresh workspace per call: the convenience wrappers must stay safe
  // against re-entry through the pool's caller-runs work stealing.
  SvdWorkspace ws;
  const TruncatedSpectrum f =
      svd_truncated_ws(ws, a.data(), a.rows(), a.cols(), a.cols(), nullptr,
                       max_rank, cutoff, /*want_u=*/true);
  TruncatedSvd r;
  r.truncation_error = f.truncation_error;
  r.discarded = f.discarded;
  r.sweeps = f.sweeps;
  r.s.assign(f.s, f.s + f.keep);
  r.u = CMatrix(a.rows(), f.keep);
  std::copy(f.u, f.u + a.rows() * f.keep, r.u.data());
  r.vh = CMatrix(f.keep, a.cols());
  std::copy(f.vh, f.vh + f.keep * a.cols(), r.vh.data());
  return r;
}

SvdResult svd(const CMatrix& a) {
  OBS_SPAN("la/svd");
  require(!a.empty(), "svd: empty matrix");
  SvdWorkspace ws;
  const std::size_t m = a.rows(), n = a.cols();
  const Engine g = decompose(ws, "svd", a.data(), m, n, n, nullptr,
                             /*want_u=*/true);
  form_factors(ws, g, g.N, /*zero_small=*/true);
  SvdResult r;
  r.s = ws.out_s;
  r.u = CMatrix(m, g.N);
  std::copy(ws.out_u.begin(), ws.out_u.end(), r.u.data());
  r.vh = CMatrix(g.N, n);
  std::copy(ws.out_vh.begin(), ws.out_vh.end(), r.vh.data());
  return r;
}

}  // namespace q2::la
