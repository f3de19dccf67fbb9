#include "linalg/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define Q2_SIMD_X86 1
#include <immintrin.h>
#else
#define Q2_SIMD_X86 0
#endif

namespace q2::la::simd {
namespace {

// -1 = no override; otherwise the int value of the forced Isa.
std::atomic<int> g_override{-1};

bool cpu_has_avx2_fma() {
#if Q2_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Isa detect() {
  const char* env = std::getenv("Q2_SIMD");
  if (env && std::strcmp(env, "portable") == 0) return Isa::kPortable;
  return cpu_has_avx2_fma() ? Isa::kAvx2Fma : Isa::kPortable;
}

// ---------------------------------------------------------------------------
// Portable path — byte-for-byte the numerics of the pre-SIMD kernels: the
// same loop structure, accumulator chains, and combine order.
// ---------------------------------------------------------------------------

void micro_accumulate_d_portable(std::size_t kc, const double* ap,
                                 const double* bp, double* acc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const double* a = ap + p * 4;
    const double* b = bp + p * 8;
    for (std::size_t i = 0; i < 4; ++i) {
      const double ai = a[i];
      double* accrow = acc + i * 8;
      for (std::size_t j = 0; j < 8; ++j) accrow[j] += ai * b[j];
    }
  }
}

void micro_accumulate_z_portable(std::size_t kc, const cplx* ap,
                                 const cplx* bp, cplx* acc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const cplx* a = ap + p * 4;
    const cplx* b = bp + p * 4;
    for (std::size_t i = 0; i < 4; ++i) {
      const cplx ai = a[i];
      cplx* accrow = acc + i * 4;
      for (std::size_t j = 0; j < 4; ++j) accrow[j] += ai * b[j];
    }
  }
}

void householder_left_portable(cplx* a, std::size_t ld, std::size_t rows,
                               std::size_t cols, const cplx* v, cplx sigma,
                               cplx* work) {
  for (std::size_t j = 0; j < cols; ++j) work[j] = a[j];
  for (std::size_t i = 1; i < rows; ++i) {
    const cplx vi = std::conj(v[i - 1]);
    const cplx* row = a + i * ld;
    for (std::size_t j = 0; j < cols; ++j) work[j] += vi * row[j];
  }
  for (std::size_t j = 0; j < cols; ++j) {
    const cplx sw = sigma * work[j];
    a[j] -= sw;
    work[j] = sw;
  }
  for (std::size_t i = 1; i < rows; ++i) {
    const cplx vi = v[i - 1];
    cplx* row = a + i * ld;
    for (std::size_t j = 0; j < cols; ++j) row[j] -= work[j] * vi;
  }
}

void householder_right_portable(cplx* a, std::size_t ld, std::size_t rows,
                                std::size_t cols, const cplx* v,
                                cplx sigma) {
  for (std::size_t i = 0; i < rows; ++i) {
    cplx* row = a + i * ld;
    cplx s = row[0];
    for (std::size_t j = 1; j < cols; ++j) s += row[j] * v[j - 1];
    const cplx ss = sigma * s;
    row[0] -= ss;
    for (std::size_t j = 1; j < cols; ++j) row[j] -= ss * std::conj(v[j - 1]);
  }
}

void givens_portable(double* x, double* y, std::size_t len, double c,
                     double s) {
  for (std::size_t i = 0; i < len; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = xi * c + yi * s;
    y[i] = yi * c - xi * s;
  }
}

// ---------------------------------------------------------------------------
// AVX2+FMA path. Compiled with per-function target attributes so the rest of
// the build keeps the portable baseline flags; only ever called after the
// runtime CPU check. Complex products use the plain (ac - bd, ad + bc)
// formula — no Annex-G infinity recovery — which matches IEEE propagation
// for the 0 * NaN / 0 * Inf cases the differential tests pin.
// ---------------------------------------------------------------------------

#if Q2_SIMD_X86

__attribute__((target("avx2,fma"))) void micro_accumulate_d_avx2(
    std::size_t kc, const double* ap, const double* bp, double* acc) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bp + p * 8);
    const __m256d b1 = _mm256_loadu_pd(bp + p * 8 + 4);
    const double* a = ap + p * 4;
    __m256d ai = _mm256_broadcast_sd(a + 0);
    c00 = _mm256_fmadd_pd(ai, b0, c00);
    c01 = _mm256_fmadd_pd(ai, b1, c01);
    ai = _mm256_broadcast_sd(a + 1);
    c10 = _mm256_fmadd_pd(ai, b0, c10);
    c11 = _mm256_fmadd_pd(ai, b1, c11);
    ai = _mm256_broadcast_sd(a + 2);
    c20 = _mm256_fmadd_pd(ai, b0, c20);
    c21 = _mm256_fmadd_pd(ai, b1, c21);
    ai = _mm256_broadcast_sd(a + 3);
    c30 = _mm256_fmadd_pd(ai, b0, c30);
    c31 = _mm256_fmadd_pd(ai, b1, c31);
  }
  _mm256_storeu_pd(acc + 0, c00);
  _mm256_storeu_pd(acc + 4, c01);
  _mm256_storeu_pd(acc + 8, c10);
  _mm256_storeu_pd(acc + 12, c11);
  _mm256_storeu_pd(acc + 16, c20);
  _mm256_storeu_pd(acc + 20, c21);
  _mm256_storeu_pd(acc + 24, c30);
  _mm256_storeu_pd(acc + 28, c31);
}

// Complex 4x4 tile: each accumulator row is 4 interleaved cplx (2 YMM).
// One complex multiply-accumulate per lane pair:
//   t    = ai * swap(b)                [ai*bi, ai*br]
//   fmaddsub(ar, b, t)                 even: ar*br - ai*bi, odd: ar*bi + ai*br
__attribute__((target("avx2,fma"))) void micro_accumulate_z_avx2(
    std::size_t kc, const cplx* ap, const cplx* bp, cplx* acc) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const double* b = reinterpret_cast<const double*>(bp + p * 4);
    const __m256d b0 = _mm256_loadu_pd(b);
    const __m256d b1 = _mm256_loadu_pd(b + 4);
    const __m256d bs0 = _mm256_permute_pd(b0, 0x5);
    const __m256d bs1 = _mm256_permute_pd(b1, 0x5);
    const double* a = reinterpret_cast<const double*>(ap + p * 4);
    __m256d ar = _mm256_broadcast_sd(a + 0);
    __m256d ai = _mm256_broadcast_sd(a + 1);
    c00 = _mm256_add_pd(
        c00, _mm256_fmaddsub_pd(ar, b0, _mm256_mul_pd(ai, bs0)));
    c01 = _mm256_add_pd(
        c01, _mm256_fmaddsub_pd(ar, b1, _mm256_mul_pd(ai, bs1)));
    ar = _mm256_broadcast_sd(a + 2);
    ai = _mm256_broadcast_sd(a + 3);
    c10 = _mm256_add_pd(
        c10, _mm256_fmaddsub_pd(ar, b0, _mm256_mul_pd(ai, bs0)));
    c11 = _mm256_add_pd(
        c11, _mm256_fmaddsub_pd(ar, b1, _mm256_mul_pd(ai, bs1)));
    ar = _mm256_broadcast_sd(a + 4);
    ai = _mm256_broadcast_sd(a + 5);
    c20 = _mm256_add_pd(
        c20, _mm256_fmaddsub_pd(ar, b0, _mm256_mul_pd(ai, bs0)));
    c21 = _mm256_add_pd(
        c21, _mm256_fmaddsub_pd(ar, b1, _mm256_mul_pd(ai, bs1)));
    ar = _mm256_broadcast_sd(a + 6);
    ai = _mm256_broadcast_sd(a + 7);
    c30 = _mm256_add_pd(
        c30, _mm256_fmaddsub_pd(ar, b0, _mm256_mul_pd(ai, bs0)));
    c31 = _mm256_add_pd(
        c31, _mm256_fmaddsub_pd(ar, b1, _mm256_mul_pd(ai, bs1)));
  }
  double* out = reinterpret_cast<double*>(acc);
  _mm256_storeu_pd(out + 0, c00);
  _mm256_storeu_pd(out + 4, c01);
  _mm256_storeu_pd(out + 8, c10);
  _mm256_storeu_pd(out + 12, c11);
  _mm256_storeu_pd(out + 16, c20);
  _mm256_storeu_pd(out + 20, c21);
  _mm256_storeu_pd(out + 24, c30);
  _mm256_storeu_pd(out + 28, c31);
}

// alpha * x on two packed complex lanes: (ar xr - ai xi, ar xi + ai xr).
__attribute__((target("avx2,fma"))) inline __m256d cmul_avx2(__m256d ar,
                                                             __m256d ai,
                                                             __m256d x) {
  return _mm256_fmaddsub_pd(ar, x, _mm256_mul_pd(ai, _mm256_permute_pd(x, 0x5)));
}
__attribute__((target("avx2,fma"))) inline __m128d cmul_sse(__m128d ar,
                                                            __m128d ai,
                                                            __m128d x) {
  return _mm_fmaddsub_pd(ar, x, _mm_mul_pd(ai, _mm_permute_pd(x, 0x1)));
}

// y[j] += alpha * x[j] over n complex elements.
__attribute__((target("avx2,fma"))) inline void caxpy_avx2(std::size_t n,
                                                           cplx alpha,
                                                           const cplx* x,
                                                           cplx* y) {
  const __m256d ar = _mm256_set1_pd(alpha.real());
  const __m256d ai = _mm256_set1_pd(alpha.imag());
  const double* xd = reinterpret_cast<const double*>(x);
  double* yd = reinterpret_cast<double*>(y);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const __m256d xv = _mm256_loadu_pd(xd + 2 * j);
    const __m256d yv = _mm256_loadu_pd(yd + 2 * j);
    _mm256_storeu_pd(yd + 2 * j, _mm256_add_pd(yv, cmul_avx2(ar, ai, xv)));
  }
  if (j < n) {
    const __m128d xv = _mm_loadu_pd(xd + 2 * j);
    const __m128d yv = _mm_loadu_pd(yd + 2 * j);
    _mm_storeu_pd(yd + 2 * j,
                  _mm_add_pd(yv, cmul_sse(_mm256_castpd256_pd128(ar),
                                          _mm256_castpd256_pd128(ai), xv)));
  }
}

__attribute__((target("avx2,fma"))) void householder_left_avx2(
    cplx* a, std::size_t ld, std::size_t rows, std::size_t cols,
    const cplx* v, cplx sigma, cplx* work) {
  for (std::size_t j = 0; j < cols; ++j) work[j] = a[j];
  for (std::size_t i = 1; i < rows; ++i)
    caxpy_avx2(cols, std::conj(v[i - 1]), a + i * ld, work);
  // work <- sigma * work, folded into the head row.
  const __m256d sr = _mm256_set1_pd(sigma.real());
  const __m256d si = _mm256_set1_pd(sigma.imag());
  double* wd = reinterpret_cast<double*>(work);
  double* hd = reinterpret_cast<double*>(a);
  std::size_t j = 0;
  for (; j + 2 <= cols; j += 2) {
    const __m256d sw = cmul_avx2(sr, si, _mm256_loadu_pd(wd + 2 * j));
    _mm256_storeu_pd(hd + 2 * j, _mm256_sub_pd(_mm256_loadu_pd(hd + 2 * j), sw));
    _mm256_storeu_pd(wd + 2 * j, sw);
  }
  if (j < cols) {
    const __m128d sw = cmul_sse(_mm256_castpd256_pd128(sr),
                                _mm256_castpd256_pd128(si),
                                _mm_loadu_pd(wd + 2 * j));
    _mm_storeu_pd(hd + 2 * j, _mm_sub_pd(_mm_loadu_pd(hd + 2 * j), sw));
    _mm_storeu_pd(wd + 2 * j, sw);
  }
  for (std::size_t i = 1; i < rows; ++i)
    caxpy_avx2(cols, -v[i - 1], work, a + i * ld);
}

// Per row: s = row . [1; v] (no conjugation), then row -= sigma s [1; v]^H.
__attribute__((target("avx2,fma"))) void householder_right_avx2(
    cplx* a, std::size_t ld, std::size_t rows, std::size_t cols,
    const cplx* v, cplx sigma) {
  const double* vd = reinterpret_cast<const double*>(v);
  const std::size_t tail = cols - 1;
  const __m256d conj_mask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    cplx* row = a + i * ld;
    double* xd = reinterpret_cast<double*>(row + 1);
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 2 <= tail; j += 2) {
      const __m256d xv = _mm256_loadu_pd(xd + 2 * j);
      const __m256d vv = _mm256_loadu_pd(vd + 2 * j);
      acc = _mm256_add_pd(
          acc, _mm256_fmaddsub_pd(
                   _mm256_movedup_pd(xv), vv,
                   _mm256_mul_pd(_mm256_permute_pd(xv, 0xF),
                                 _mm256_permute_pd(vv, 0x5))));
    }
    __m128d sum = _mm_add_pd(_mm256_castpd256_pd128(acc),
                             _mm256_extractf128_pd(acc, 1));
    if (j < tail) {
      const __m128d xv = _mm_loadu_pd(xd + 2 * j);
      const __m128d vv = _mm_loadu_pd(vd + 2 * j);
      sum = _mm_add_pd(
          sum, _mm_fmaddsub_pd(_mm_movedup_pd(xv), vv,
                               _mm_mul_pd(_mm_permute_pd(xv, 0x3),
                                          _mm_permute_pd(vv, 0x1))));
    }
    alignas(16) double parts[2];
    _mm_store_pd(parts, sum);
    const cplx s = row[0] + cplx{parts[0], parts[1]};
    const cplx ss{sigma.real() * s.real() - sigma.imag() * s.imag(),
                  sigma.real() * s.imag() + sigma.imag() * s.real()};
    row[0] -= ss;
    // row[j + 1] += (-ss) * conj(v[j]).
    const __m256d br = _mm256_set1_pd(-ss.real());
    const __m256d bi = _mm256_set1_pd(-ss.imag());
    for (j = 0; j + 2 <= tail; j += 2) {
      const __m256d vc = _mm256_xor_pd(_mm256_loadu_pd(vd + 2 * j), conj_mask);
      const __m256d xv = _mm256_loadu_pd(xd + 2 * j);
      _mm256_storeu_pd(xd + 2 * j, _mm256_add_pd(xv, cmul_avx2(br, bi, vc)));
    }
    if (j < tail) {
      const __m128d vc = _mm_xor_pd(_mm_loadu_pd(vd + 2 * j),
                                    _mm256_castpd256_pd128(conj_mask));
      const __m128d xv = _mm_loadu_pd(xd + 2 * j);
      _mm_storeu_pd(xd + 2 * j,
                    _mm_add_pd(xv, cmul_sse(_mm256_castpd256_pd128(br),
                                            _mm256_castpd256_pd128(bi), vc)));
    }
  }
}

__attribute__((target("avx2,fma"))) void givens_avx2(double* x, double* y,
                                                     std::size_t len,
                                                     double c, double s) {
  const __m256d cv = _mm256_set1_pd(c), sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(x + i, _mm256_fmadd_pd(xv, cv, _mm256_mul_pd(yv, sv)));
    _mm256_storeu_pd(y + i, _mm256_fnmadd_pd(xv, sv, _mm256_mul_pd(yv, cv)));
  }
  for (; i < len; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = std::fma(xi, c, yi * s);
    y[i] = std::fma(-xi, s, yi * c);
  }
}

#endif  // Q2_SIMD_X86

}  // namespace

Isa active_isa() {
  const int ov = g_override.load(std::memory_order_relaxed);
  if (ov >= 0) return static_cast<Isa>(ov);
  static const Isa detected = detect();
  return detected;
}

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2Fma ? "avx2-fma" : "portable";
}

void set_isa_override(Isa isa) {
  if (isa == Isa::kAvx2Fma && !cpu_has_avx2_fma()) isa = Isa::kPortable;
  g_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_isa_override() {
  g_override.store(-1, std::memory_order_relaxed);
}

void micro_accumulate_d(std::size_t kc, const double* ap, const double* bp,
                        double* acc) {
#if Q2_SIMD_X86
  if (active_isa() == Isa::kAvx2Fma)
    return micro_accumulate_d_avx2(kc, ap, bp, acc);
#endif
  micro_accumulate_d_portable(kc, ap, bp, acc);
}

void micro_accumulate_z(std::size_t kc, const cplx* ap, const cplx* bp,
                        cplx* acc) {
#if Q2_SIMD_X86
  if (active_isa() == Isa::kAvx2Fma)
    return micro_accumulate_z_avx2(kc, ap, bp, acc);
#endif
  micro_accumulate_z_portable(kc, ap, bp, acc);
}

void householder_left(cplx* a, std::size_t ld, std::size_t rows,
                      std::size_t cols, const cplx* v, cplx sigma,
                      cplx* work) {
#if Q2_SIMD_X86
  if (active_isa() == Isa::kAvx2Fma)
    return householder_left_avx2(a, ld, rows, cols, v, sigma, work);
#endif
  householder_left_portable(a, ld, rows, cols, v, sigma, work);
}

void householder_right(cplx* a, std::size_t ld, std::size_t rows,
                       std::size_t cols, const cplx* v, cplx sigma) {
#if Q2_SIMD_X86
  if (active_isa() == Isa::kAvx2Fma)
    return householder_right_avx2(a, ld, rows, cols, v, sigma);
#endif
  householder_right_portable(a, ld, rows, cols, v, sigma);
}

void givens(double* x, double* y, std::size_t len, double c, double s) {
#if Q2_SIMD_X86
  if (active_isa() == Isa::kAvx2Fma) return givens_avx2(x, y, len, c, s);
#endif
  givens_portable(x, y, len, c, s);
}

}  // namespace q2::la::simd
