#include "linalg/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <complex>
#include <type_traits>

#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "parallel/thread_pool.hpp"

namespace q2::la {
namespace {

// Register tile per element type. The complex kernel halves NR: a 4x4 cplx
// accumulator is 32 doubles, which still fits the vector register file.
template <typename T>
struct Micro {
  static constexpr std::size_t MR = GemmBlocking::kMR;
  static constexpr std::size_t NR = GemmBlocking::kNR;
};
template <>
struct Micro<cplx> {
  static constexpr std::size_t MR = 4;
  static constexpr std::size_t NR = 4;
};

template <typename T>
T maybe_conj(T v, bool conj) {
  if constexpr (std::is_same_v<T, cplx>) {
    if (conj) return std::conj(v);
  }
  (void)conj;
  return v;
}

// Read-only operand view the packing routines pull elements through, with
// transpose/adjoint folded in; the per-element branch cost lives in the
// O(mk)+O(kn) pack, never in the O(mnk) kernel.
template <typename T>
struct OpView {
  const T* data;
  std::size_t ld;
  bool trans;
  bool conj;
  T at(std::size_t i, std::size_t j) const {
    return maybe_conj(trans ? data[j * ld + i] : data[i * ld + j], conj);
  }
};

constexpr std::size_t round_up(std::size_t x, std::size_t r) {
  return (x + r - 1) / r * r;
}

// Pack an mc x kc block of op(A) (alpha folded in) into MR-row micro-panels,
// zero-padded to a multiple of MR: buf[(ir/MR)*MR*kc + p*MR + i]. At
// alpha == 1 the elements are copied (conjugated where asked), not
// multiplied: the complex product 1 * a turns the partner of an infinite
// part into NaN and the -0 imaginary part of an exact zero into +0, and the
// unpacked single-tile path reads A's own bits.
template <typename T>
void pack_a(T* buf, const OpView<T>& av, T alpha, std::size_t i0,
            std::size_t p0, std::size_t mc, std::size_t kc) {
  constexpr std::size_t MR = Micro<T>::MR;
  const bool scale = alpha != T{1};
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = std::min(MR, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      T* dst = buf + p * MR;
      for (std::size_t i = 0; i < mr; ++i) {
        const T v = av.at(i0 + ir + i, p0 + p);
        dst[i] = scale ? alpha * v : v;
      }
      for (std::size_t i = mr; i < MR; ++i) dst[i] = T{};
    }
    buf += MR * kc;
  }
}

// Pack a kc x nc block of op(B) into NR-column micro-panels, zero-padded:
// buf[(jr/NR)*NR*kc + p*NR + j].
template <typename T>
void pack_b(T* buf, const OpView<T>& bv, std::size_t p0, std::size_t j0,
            std::size_t kc, std::size_t nc) {
  constexpr std::size_t NR = Micro<T>::NR;
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      T* dst = buf + p * NR;
      for (std::size_t j = 0; j < nr; ++j)
        dst[j] = bv.at(p0 + p, j0 + jr + j);
      for (std::size_t j = nr; j < NR; ++j) dst[j] = T{};
    }
    buf += NR * kc;
  }
}

// How the first k-block writes a tile of C back: beta is folded into the
// write-back instead of a serial whole-matrix pre-pass, so no serial O(mn)
// fraction precedes the parallel region. kOverwrite (beta == 0) assigns, so
// stale values — including NaNs — in an output buffer never leak through.
enum class WriteBack { kAccumulate, kOverwrite, kScaleAdd };

// SIMD-dispatched micro-tile product (see linalg/simd.*): acc, zeroed here,
// receives the full padded MR x NR panel product.
inline void micro_accumulate(std::size_t kc, const double* ap,
                             const double* bp, double* acc) {
  simd::micro_accumulate_d(kc, ap, bp, acc);
}
inline void micro_accumulate(std::size_t kc, const cplx* ap, const cplx* bp,
                             cplx* acc) {
  simd::micro_accumulate_z(kc, ap, bp, acc);
}

// C[0..mr, 0..nr] op= acc, the padded MR x NR accumulator tile: the masked
// write-back trims the padding and applies the beta mode.
template <typename T>
void write_back(const T* acc, T* c, std::size_t ldc, std::size_t mr,
                std::size_t nr, WriteBack wb, T beta) {
  constexpr std::size_t NR = Micro<T>::NR;
  switch (wb) {
    case WriteBack::kAccumulate:
      for (std::size_t i = 0; i < mr; ++i)
        for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i * NR + j];
      break;
    case WriteBack::kOverwrite:
      for (std::size_t i = 0; i < mr; ++i)
        for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i * NR + j];
      break;
    case WriteBack::kScaleAdd:
      for (std::size_t i = 0; i < mr; ++i)
        for (std::size_t j = 0; j < nr; ++j)
          c[i * ldc + j] = beta * c[i * ldc + j] + acc[i * NR + j];
      break;
  }
}

// Register-tiled inner kernel: C[0..mr, 0..nr] op= Apanel . Bpanel over kc.
// The accumulator spans the full padded MR x NR tile so the hot loop has no
// edge branches. Note there is deliberately no zero-skip anywhere: 0 * NaN
// and 0 * Inf must propagate exactly as they do in the reference kernel.
template <typename T>
void micro_kernel(std::size_t kc, const T* ap, const T* bp, T* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr,
                  WriteBack wb, T beta) {
  T acc[Micro<T>::MR * Micro<T>::NR] = {};
  micro_accumulate(kc, ap, bp, acc);
  write_back(acc, c, ldc, mr, nr, wb, beta);
}

// One mc x nc macro-tile of C: every micro-panel of the packed A block
// against every micro-panel of the packed B panel slice.
template <typename T>
void macro_kernel(std::size_t mc, std::size_t kc, std::size_t nc,
                  const T* abuf, const T* bbuf, T* c, std::size_t ldc,
                  WriteBack wb, T beta) {
  constexpr std::size_t MR = Micro<T>::MR;
  constexpr std::size_t NR = Micro<T>::NR;
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const T* bp = bbuf + (jr / NR) * NR * kc;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const T* ap = abuf + (ir / MR) * MR * kc;
      micro_kernel(kc, ap, bp, c + ir * ldc + jr, ldc, mr, nr, wb, beta);
    }
  }
}

// The single-tile product of a complex GEMM on AVX2, without packing what
// it can read in place: A at alpha == 1 (a row read for kNone, a column
// read for kTrans/kAdjoint, conjugated by the kernel) and B when it is not
// transposed. A at alpha != 1 and a transposed B still go through pack_a /
// pack_b. Each C element gets micro_kernel's operations in its order
// (simd::tile_z is the AVX2 micro_accumulate_z kernel reading in place, and
// pack_a copies at alpha == 1), so the bits are the packed path's. Full
// tiles write C from registers except under scale-add; ragged and
// scale-add tiles take write_back.
void single_tile_unpacked(std::size_t m, std::size_t k, std::size_t n,
                          cplx alpha, const OpView<cplx>& av,
                          const OpView<cplx>& bv, cplx* c, std::size_t ldc,
                          WriteBack wb, cplx beta) {
  constexpr std::size_t MR = Micro<cplx>::MR;
  constexpr std::size_t NR = Micro<cplx>::NR;
  thread_local std::vector<cplx> abuf, bbuf;
  // Tile (ir, jr) reads op(A) from a + ir * a_tile and B from b + jr * b_tile.
  simd::ZTile t{av.data, av.trans ? 1 : av.ld, av.trans ? av.ld : 1,
                av.conj, bv.data, bv.ld};
  std::size_t a_tile = t.a_row, b_tile = 1;
  if (alpha != cplx{1}) {
    if (abuf.size() < round_up(m, MR) * k) abuf.resize(round_up(m, MR) * k);
    pack_a(abuf.data(), av, alpha, 0, 0, m, k);
    t.a = abuf.data();
    t.a_row = 1;
    t.a_step = MR;
    t.conj_a = false;
    a_tile = k;
  }
  if (bv.trans) {
    if (bbuf.size() < round_up(n, NR) * k) bbuf.resize(round_up(n, NR) * k);
    pack_b(bbuf.data(), bv, 0, 0, k, n);
    t.b = bbuf.data();
    t.ldb = NR;
    b_tile = k;
  }
  const cplx* const a = t.a;
  const cplx* const b = t.b;
  for (std::size_t jr = 0; jr < n; jr += NR) {
    const std::size_t nr = std::min(NR, n - jr);
    t.b = b + jr * b_tile;
    for (std::size_t ir = 0; ir < m; ir += MR) {
      const std::size_t mr = std::min(MR, m - ir);
      t.a = a + ir * a_tile;
      cplx* const ct = c + ir * ldc + jr;
      if (mr == MR && nr == NR && wb != WriteBack::kScaleAdd) {
        simd::tile_z(k, t, ct, ldc, wb == WriteBack::kAccumulate);
      } else {
        cplx acc[MR * NR];
        simd::tile_z_acc(k, t, mr, nr, acc);
        write_back(acc, ct, ldc, mr, nr, wb, beta);
      }
    }
  }
}

obs::Counter& packa_reuse_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("gemm.packa_reused");
  return c;
}
obs::Counter& packa_pack_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("gemm.packa_packed");
  return c;
}

/// Distinguishes tile-grid dispatches so a thread's cached packed-A row panel
/// is never mistaken for another (jc, k-span) phase's — or another
/// concurrent GEMM's — panel of the same tile-row index.
std::uint64_t next_tile_loop_id() {
  static std::atomic<std::uint64_t> id{0};
  return id.fetch_add(1, std::memory_order_relaxed) + 1;  // never 0
}

// Blocked driver, parallel over a 2-D (ic x jr) tile grid. The old
// m/MC-row-only decomposition starved the pool — at m = 256, MC = 96 yields
// 3 tiles for 4 threads — and its serial B-pack plus serial beta pre-pass
// capped scaling on top (Amdahl). Now:
//
//   * k is walked in spans of up to KS (a whole number of KC k-blocks). The
//     B panel of each (jc, span) phase — every k-block of the span — is
//     packed cooperatively, one (k-block, JB-column) slab per parallel_for
//     iteration (disjoint writes, and packing is element-copying, so the
//     packed bytes are scheduling-independent).
//   * C tiles form an (m/MC) x (nc/JB) grid; every tile is claimed exactly
//     once, by a thread that runs the span's k-blocks in ascending order, so
//     each C element sees the same fixed accumulation order — and therefore
//     bit-identical results — at every thread count. A tile's C block stays
//     on one core across its k-blocks, and a span costs two dispatches, not
//     two per k-block.
//   * beta is folded into the first k-block's write-back (see WriteBack), so
//     no serial O(mn) pass remains.
//   * The packed A row panel (the tile row's blocks for every k-block of the
//     span) lives in a thread-local buffer keyed by (loop, tile-row): a
//     thread working down its row-major lane of tiles reuses its packed
//     panel instead of paying a pack — and never re-mallocs
//     (gemm.packa_{packed,reused} count MC x KC blocks).
template <typename T>
void gemm_blocked(std::size_t m, std::size_t k, std::size_t n, T alpha,
                  const OpView<T>& av, const OpView<T>& bv, T beta, T* c,
                  std::size_t ldc, const par::ParallelOptions& opts) {
  OBS_SPAN("la/gemm");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Nothing to accumulate: the call reduces to C *= beta.
    if (beta == T{}) {
      for (std::size_t i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, T{});
    } else if (beta != T{1}) {
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
    }
    return;
  }
  // Charged before the dispatch, on the calling thread: totals are
  // bit-identical at every thread count (see obs/workload.hpp).
  obs::WorkCounter::charge(obs::gemm_flops(m, k, n, !std::is_same_v<T, double>),
                           obs::gemm_bytes(m, k, n, sizeof(T)));

  constexpr std::size_t MR = Micro<T>::MR;
  constexpr std::size_t NR = Micro<T>::NR;
  constexpr std::size_t MC = GemmBlocking::kMC;
  constexpr std::size_t KC = GemmBlocking::kKC;
  constexpr std::size_t NC = GemmBlocking::kNC;
  constexpr std::size_t JB = GemmBlocking::kJB;
  static_assert(JB % GemmBlocking::kNR == 0 && JB % 4 == 0,
                "JB must be a whole number of micro-panels for every Micro<T>");

  const WriteBack first_wb = beta == T{}    ? WriteBack::kOverwrite
                             : beta == T{1} ? WriteBack::kAccumulate
                                            : WriteBack::kScaleAdd;
  if (m <= MC && n <= JB && k <= KC) {
    // One C tile and one k-block: the grid below would hold a single task,
    // so run it on the calling thread with the same kernel (the same bits)
    // and none of the dispatch — no parallel_for, no loop id, no per-call
    // allocation. Transfer and two-site-update products at MPS bond
    // dimensions up to 64 all land here. The buffers are this thread's and
    // grow to the largest single-tile product it has run.
    if constexpr (std::is_same_v<T, cplx>) {
      if (simd::active_isa() == simd::Isa::kAvx2Fma)
        return single_tile_unpacked(m, k, n, alpha, av, bv, c, ldc, first_wb,
                                    beta);
    }
    thread_local std::vector<T> abuf, bbuf;
    if (abuf.size() < round_up(m, MR) * k) abuf.resize(round_up(m, MR) * k);
    if (bbuf.size() < round_up(n, NR) * k) bbuf.resize(round_up(n, NR) * k);
    pack_a(abuf.data(), av, alpha, 0, 0, m, k);
    pack_b(bbuf.data(), bv, 0, 0, k, n);
    macro_kernel(m, k, n, abuf.data(), bbuf.data(), c, ldc, first_wb, beta);
    return;
  }

  constexpr std::size_t KS = GemmBlocking::kKS;
  static_assert(KS % KC == 0, "a k-span must be a whole number of k-blocks");
  const std::size_t n_ib = (m + MC - 1) / MC;
  std::vector<T> bpanel(round_up(std::min(NC, n), NR) * std::min(KS, k));
  T* const bbuf = bpanel.data();
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    const std::size_t n_jb = (nc + JB - 1) / JB;
    const std::size_t b_cols = round_up(nc, NR);
    for (std::size_t ks = 0; ks < k; ks += KS) {
      const std::size_t ksw = std::min(KS, k - ks);
      const std::size_t n_kb = (ksw + KC - 1) / KC;
      // k-block pc (relative to ks) of the B panel starts at b_cols * pc, and
      // of a packed A row panel at round_up(mc, MR) * pc.
      par::parallel_for(opts, 0, n_kb * n_jb, [&](std::size_t s) {
        const std::size_t pc = (s / n_jb) * KC, jr0 = (s % n_jb) * JB;
        const std::size_t kc = std::min(KC, ksw - pc);
        pack_b(bbuf + b_cols * pc + (jr0 / NR) * NR * kc, bv, ks + pc,
               jc + jr0, kc, std::min(JB, nc - jr0));
      });
      const std::uint64_t loop_id = next_tile_loop_id();
      auto run_tile = [&](std::size_t t) {
        const std::size_t ib = t / n_jb, jb = t % n_jb;
        const std::size_t ic = ib * MC;
        const std::size_t mc = std::min(MC, m - ic);
        const std::size_t a_rows = round_up(mc, MR);
        const std::size_t jr0 = jb * JB;
        const std::size_t ncw = std::min(JB, nc - jr0);
        // Loop ids start at 1, so a thread's first tile always packs.
        thread_local std::vector<T> abuf;
        thread_local std::uint64_t abuf_loop = 0;
        thread_local std::size_t abuf_ib = 0;
        if (abuf_loop != loop_id || abuf_ib != ib) {
          if (abuf.size() < a_rows * ksw) abuf.resize(a_rows * ksw);
          for (std::size_t pc = 0; pc < ksw; pc += KC)
            pack_a(abuf.data() + a_rows * pc, av, alpha, ic, ks + pc, mc,
                   std::min(KC, ksw - pc));
          abuf_loop = loop_id;
          abuf_ib = ib;
          packa_pack_counter().add(n_kb);
        } else {
          packa_reuse_counter().add(n_kb);
        }
        for (std::size_t pc = 0; pc < ksw; pc += KC) {
          const std::size_t kc = std::min(KC, ksw - pc);
          const WriteBack wb =
              ks + pc != 0 ? WriteBack::kAccumulate : first_wb;
          macro_kernel(mc, kc, ncw, abuf.data() + a_rows * pc,
                       bbuf + b_cols * pc + (jr0 / NR) * NR * kc,
                       c + ic * ldc + jc + jr0, ldc, wb, beta);
        }
      };
      // Tiles are dealt out as contiguous row-major lanes, one per thread, so
      // a thread's consecutive tiles share a tile row (one A pack per row,
      // not one per thread per row) and the tail is a thread's last tile,
      // not whichever tile a late claim lands on. A thread whose lane runs
      // dry takes tiles from the fronts of the other lanes, which keeps the
      // balance dynamic when threads run at different speeds.
      const std::size_t n_tiles = n_ib * n_jb;
      const std::size_t lanes = std::min(par::resolve_threads(opts), n_tiles);
      std::vector<std::atomic<std::size_t>> next(lanes);
      for (std::size_t l = 0; l < lanes; ++l)
        next[l].store(l * n_tiles / lanes, std::memory_order_relaxed);
      par::parallel_for(opts, 0, lanes, [&](std::size_t lane) {
        for (std::size_t v = 0; v < lanes; ++v) {
          const std::size_t l = (lane + v) % lanes;
          const std::size_t end = (l + 1) * n_tiles / lanes;
          for (std::size_t t = next[l].fetch_add(1, std::memory_order_relaxed);
               t < end; t = next[l].fetch_add(1, std::memory_order_relaxed))
            run_tile(t);
        }
      });
    }
  }
}

template <typename T>
void gemm_impl(T alpha, const Matrix<T>& a, Op op_a, const Matrix<T>& b,
               Op op_b, T beta, Matrix<T>& c,
               const par::ParallelOptions& opts) {
  const bool ta = op_a != Op::kNone, tb = op_b != Op::kNone;
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t ka = ta ? a.rows() : a.cols();
  const std::size_t kb = tb ? b.cols() : b.rows();
  const std::size_t n = tb ? b.rows() : b.cols();
  require(ka == kb, "gemm: inner dimension mismatch");
  if (c.empty() && beta == T{}) c = Matrix<T>(m, n);
  require(c.rows() == m && c.cols() == n, "gemm: output shape mismatch");

  // In-place products (C aliasing A or B) copy the aliased operand, since
  // the kernel interleaves C tile writes with A/B panel packing.
  Matrix<T> a_copy, b_copy;
  const Matrix<T>* pa = &a;
  const Matrix<T>* pb = &b;
  if (!c.empty() && !a.empty() && c.data() == a.data()) {
    a_copy = a;
    pa = &a_copy;
  }
  if (!c.empty() && !b.empty() && c.data() == b.data()) {
    b_copy = b;
    pb = &b_copy;
  }

  const OpView<T> av{pa->data(), pa->cols(), ta, op_a == Op::kAdjoint};
  const OpView<T> bv{pb->data(), pb->cols(), tb, op_b == Op::kAdjoint};
  gemm_blocked(m, ka, n, alpha, av, bv, beta, c.data(), c.cols(), opts);
}

}  // namespace

void gemm(cplx alpha, const CMatrix& a, Op op_a, const CMatrix& b, Op op_b,
          cplx beta, CMatrix& c, const par::ParallelOptions& opts) {
  gemm_impl(alpha, a, op_a, b, op_b, beta, c, opts);
}

void gemm(double alpha, const RMatrix& a, Op op_a, const RMatrix& b, Op op_b,
          double beta, RMatrix& c, const par::ParallelOptions& opts) {
  gemm_impl(alpha, a, op_a, b, op_b, beta, c, opts);
}

CMatrix matmul(const CMatrix& a, const CMatrix& b, Op op_a, Op op_b,
               const par::ParallelOptions& opts) {
  CMatrix c;
  gemm(cplx{1}, a, op_a, b, op_b, cplx{0}, c, opts);
  return c;
}

RMatrix matmul(const RMatrix& a, const RMatrix& b, Op op_a, Op op_b,
               const par::ParallelOptions& opts) {
  RMatrix c;
  gemm(1.0, a, op_a, b, op_b, 0.0, c, opts);
  return c;
}

void gemm_raw(std::size_t m, std::size_t k, std::size_t n, cplx alpha,
              const cplx* a, std::size_t lda, Op op_a, const cplx* b,
              std::size_t ldb, Op op_b, cplx beta, cplx* c, std::size_t ldc,
              const par::ParallelOptions& opts) {
  require(a != nullptr && b != nullptr && c != nullptr,
          "gemm_raw: null operand");
  require(ldc >= n, "gemm_raw: ldc < n");
  // lda/ldb are the strides of the *stored* operands: op(A) reads an m x k
  // matrix from an m x k (kNone) or k x m (kTrans/kAdjoint) array.
  require(op_a == Op::kNone ? lda >= k : lda >= m,
          op_a == Op::kNone ? "gemm_raw: lda < k" : "gemm_raw: lda < m");
  require(op_b == Op::kNone ? ldb >= n : ldb >= k,
          op_b == Op::kNone ? "gemm_raw: ldb < n" : "gemm_raw: ldb < k");
  const OpView<cplx> av{a, lda, op_a != Op::kNone, op_a == Op::kAdjoint};
  const OpView<cplx> bv{b, ldb, op_b != Op::kNone, op_b == Op::kAdjoint};
  gemm_blocked(m, k, n, alpha, av, bv, beta, c, ldc, opts);
}

void gemm_raw(std::size_t m, std::size_t k, std::size_t n, const cplx* a,
              std::size_t lda, Op op_a, const cplx* b, std::size_t ldb,
              Op op_b, cplx* c, std::size_t ldc,
              const par::ParallelOptions& opts) {
  gemm_raw(m, k, n, cplx{1}, a, lda, op_a, b, ldb, op_b, cplx{0}, c, ldc,
           opts);
}

void gemm_tile(const cplx* a, std::size_t lda, const cplx* b, std::size_t ldb,
               cplx* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n) {
  const OpView<cplx> av{a, lda, false, false};
  const OpView<cplx> bv{b, ldb, false, false};
  par::ParallelOptions serial;
  serial.n_threads = 1;
  gemm_blocked(m, k, n, cplx{1}, av, bv, cplx{1}, c, ldc, serial);
}

std::vector<cplx> matvec(const CMatrix& a, const std::vector<cplx>& x) {
  require(a.cols() == x.size(), "matvec: shape mismatch");
  std::vector<cplx> y(a.rows(), cplx{});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const cplx* row = a.row(i);
    cplx s{};
    for (std::size_t j = 0; j < x.size(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

std::vector<double> matvec(const RMatrix& a, const std::vector<double>& x) {
  require(a.cols() == x.size(), "matvec: shape mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    double s = 0;
    for (std::size_t j = 0; j < x.size(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

void gemm_naive(const CMatrix& a, const CMatrix& b, CMatrix& c) {
  require(a.cols() == b.rows(), "gemm_naive: inner dimension mismatch");
  c = CMatrix(a.rows(), b.cols());
  // Deliberately j-inner-k order with a strided B access: this is the
  // untuned baseline for the §IV-B kernel comparison.
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      cplx s{};
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
}

}  // namespace q2::la
