// Matrix Product State simulator — the paper's core innovation (§III-A).
// The state is kept in right-canonical form: site tensors B[k] of shape
// (D_{k-1}, 2, D_k) satisfying sum_{i,b} B*[a',i,b] B[a,i,b] = delta, plus
// the Schmidt vectors lambda[k] on each bond. Two-qubit gates follow the
// Hastings update of Eqs. (7)-(10): contract, lambda-reweight, SVD, truncate
// to the bond dimension D, restore the left tensor from the unweighted M.
// Truncation error is accumulated and exposed, as the paper prescribes.
#pragma once

#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/reorder.hpp"
#include "linalg/svd.hpp"
#include "parallel/parallel_options.hpp"
#include "pauli/measurement_mpo.hpp"
#include "pauli/qubit_operator.hpp"

namespace q2::sim {

struct MpsOptions {
  std::size_t max_bond = 64;   ///< D, the bond-dimension cap
  double svd_cutoff = 1e-12;   ///< drop singular values below cutoff * s_max
  /// On-node parallelism, consumed at two levels: the drivers sitting on
  /// these options (the Pauli-term sweep and the gradients in
  /// vqe::EnergyEvaluator) and the blocked GEMM inside the two-site update,
  /// which fans out over C macro-tiles. Both are bit-identical across
  /// thread counts, so parallel == serial exactly.
  par::ParallelOptions parallel;
};

/// The arrays that hold an unpermuted engine's state (Mps::export_state),
/// for comparing two engines bit for bit. Nothing stores or reloads them:
/// a VQE snapshot holds the optimizer state and recomputes the MPS from its
/// parameters.
struct MpsState {
  std::vector<std::vector<cplx>> tensors;   ///< site tensors, (dl, 2, dr) each
  std::vector<std::size_t> dl, dr;          ///< per-site bond dimensions
  std::vector<std::vector<double>> lambda;  ///< Schmidt vectors per bond
  double truncation_error = 0.0;            ///< accumulated truncation error
};

/// What a compiled run overwrites between its parametric gates, saved on the
/// way forward so that a backward walk can restore the state at each
/// parametric gate instead of applying every gate's adjoint to it. Segment k
/// starts after the k-th parametric gate of the stream and ends with the
/// next one (the last segment, with the stream). It holds, as they were at
/// its start: every site tensor a gate of the segment changes, with its
/// bond dimensions; the Schmidt vector of every bond a two-site gate of the
/// segment changes; and the accumulated truncation error. A segment's
/// tensors share one buffer allocated at their total size, and so do its
/// Schmidt vectors. Mps::run(compiled, params, recording) fills it and
/// Mps::restore reads it; nothing else sees the format.
class MpsRecording {
 public:
  /// One per parametric gate of the recorded stream.
  std::size_t segments() const { return segments_.size(); }
  /// Site tensors saved over all segments.
  std::size_t tensors() const { return sites_.size(); }
  /// Bytes of saved tensor and Schmidt-vector data.
  std::size_t bytes() const { return bytes_; }

 private:
  friend class Mps;
  /// A site a segment changes, with its bond dimensions at the segment's
  /// start. `bond`: the bond right of it changes too.
  struct Site {
    int site = 0;
    bool bond = false;
    std::size_t dl = 0, dr = 0;
  };
  struct Segment {
    std::size_t first = 0;  ///< its sites start at sites_[first]
    std::vector<cplx> tensors;    ///< its sites' tensors, in site order
    std::vector<double> lambdas;  ///< its changed bonds' Schmidt vectors
    double truncation_error = 0.0;
  };
  /// Segment k's sites: sites_[begin, end).
  std::pair<std::size_t, std::size_t> site_range(std::size_t k) const {
    return {segments_[k].first,
            k + 1 < segments_.size() ? segments_[k + 1].first : sites_.size()};
  }
  int n_ = 0;
  std::vector<Site> sites_;  ///< segment by segment, ascending in each
  std::vector<Segment> segments_;
  /// The last segment starts at the stream's end (a final parametric gate),
  /// so its state carries the compiled output permutation.
  bool ends_permuted_ = false;
  std::size_t bytes_ = 0;
};

class Mps {
 public:
  /// |0...0> on n qubits (product state, all bonds trivial).
  explicit Mps(int n_qubits, MpsOptions options = {});

  /// Exact MPS decomposition of a state vector (Fig. 2a: FCI tensor -> MPS),
  /// truncated to the configured bond dimension.
  static Mps from_statevector(int n_qubits, const std::vector<cplx>& amps,
                              MpsOptions options = {});

  int n_qubits() const { return n_; }
  const MpsOptions& options() const { return options_; }

  /// Bond dimension between sites k and k+1.
  std::size_t bond_dimension(int k) const;
  std::size_t max_bond_dimension() const;
  /// Total tensor storage in bytes — the Fig. 2(c) memory axis.
  std::size_t memory_bytes() const;

  /// Accumulated relative truncation error over all gate applications: per
  /// SVD, the dropped squared singular values over the total, summed
  /// directly, so an update that drops nothing adds exactly 0 (the
  /// renormalization still divides by 1 - kept / total).
  double truncation_error() const { return truncation_error_; }

  void apply(const circ::Gate& g, const std::vector<double>& params = {});
  /// Applies g^† (the conjugate transpose of g's matrix at `params`): the
  /// step of a backward walk along a gate stream, as in the adjoint
  /// gradient. Same two-site update, so the same truncation rules.
  void apply_adjoint(const circ::Gate& g,
                     const std::vector<double>& params = {});
  /// Runs a circuit; long-range two-qubit gates are routed internally
  /// (eagerly — prefer the compiled overload for repeated runs).
  void run(const circ::Circuit& c, const std::vector<double>& params = {});
  /// Runs a pre-compiled circuit (see circ::compile_for_mps) and adopts its
  /// residual output permutation: subsequent expectation values map logical
  /// Pauli strings through the permutation, so the un-routing SWAP tail of
  /// the eager router never runs. Requires an unpermuted engine (a fresh
  /// state or one whose previous compiled run ended at the identity).
  void run(const circ::CompiledCircuit& c,
           const std::vector<double>& params = {});
  /// Runs gates [first_gate, last_gate) of a compiled circuit on an engine
  /// that holds the state after gates [0, first_gate) (a fresh engine when
  /// first_gate is 0). The output permutation is adopted only when the range
  /// reaches the end: a state stopped mid-stream is a prefix for further
  /// ranged runs, not a state to measure. Splitting a run into ranges
  /// applies the same gates in the same order, so the result is
  /// bit-identical to the one-shot run — which is what lets the VQE
  /// gradients replay only the suffix a shifted parameter changes.
  void run(const circ::CompiledCircuit& c, const std::vector<double>& params,
           std::size_t first_gate, std::size_t last_gate);
  /// run(c, params) that also fills `recording` (replacing its contents):
  /// after each parametric gate it copies the tensors the gates up to the
  /// next one will overwrite. Copies only, so the state carries the bits of
  /// an unrecorded run. One mps/run span; the copied bytes are counted in
  /// mps.recorded_bytes.
  void run(const circ::CompiledCircuit& c, const std::vector<double>& params,
           MpsRecording& recording);
  /// Takes the state from its value after parametric gate k + 1 of the
  /// recorded run (after the whole run, for the last segment) back to its
  /// value after parametric gate k, bit for bit: the bits of
  /// run(c, params, 0, g + 1) with g that gate's index. So segments are
  /// restored last to first, starting from the recorded run's final state.
  void restore(const MpsRecording& recording, std::size_t k);

  /// Residual logical→site placement left by compiled runs (identity on a
  /// fresh engine and after plain runs).
  const circ::QubitPermutation& output_permutation() const { return perm_; }

  double norm() const;

  /// One string: a chain of one transfer per support site, then a trace.
  /// The per-term reference the MPO sweep is checked against, and the path
  /// that measures a subset of a sum's terms.
  cplx expectation(const pauli::PauliString& p) const;
  /// Σ_k c_k <P_k>: builds the operator's MPO from its sorted_terms() for
  /// this engine's output_permutation() and measures it in one sweep_mpo.
  cplx expectation(const pauli::QubitOperator& op) const;
  /// Σ_k c_k <P_k> in one left-to-right environment sweep over an MPO
  /// built for this engine's output_permutation() (throws otherwise). At
  /// each site and for each in-state w it forms the blocks
  /// C_{i'i} = B_{i'}^† E_w B_i that w's letters need (I and Z the diagonal
  /// ones, X and Y the off-diagonal ones), then adds each edge's
  /// coeff · Σ σ_{i'i} C_{i'i} to its out-state, or its trace to the sum,
  /// in the MPO's edge order. Serial, so the sum is bit-identical for every
  /// thread count; it agrees with the per-term sum to rounding, not bit
  /// for bit. Adds one to mps.transfer_sweeps and mpo.updates to
  /// mps.transfer_site_ops.
  cplx sweep_mpo(const pauli::MeasurementMpo& mpo) const;

  /// O|psi> / ||O|psi>|| for the MPO O = `mpo` (built for this engine's
  /// output_permutation(), else it throws), as an engine in this one's form:
  /// right-canonical tensors with exact Schmidt vectors, unit norm, the same
  /// permutation and options. ||O|psi>|| goes to `norm` (0 leaves the
  /// returned state zero). One left-to-right pass applies the MPO site by
  /// site — explicit states plus a vacuum and a done channel — and
  /// SVD-compresses each product into left-orthonormal tensors; one
  /// right-to-left SVD pass then makes the tensors right-canonical, with the
  /// true Schmidt values, since everything left of each cut is orthonormal.
  /// Both passes drop only singular values at or below svd_cutoff · s_max:
  /// the bond cap does not apply. Serial; the GEMMs follow options().parallel
  /// and are bit-identical at every thread count.
  Mps apply_mpo(const pauli::MeasurementMpo& mpo, double& norm) const;

  /// Contract everything (n <= ~24) — the test oracle path.
  std::vector<cplx> to_statevector() const;

  /// Copies of the site tensors, bonds, Schmidt vectors and accumulated
  /// truncation error; throws on a permuted state, which they do not
  /// describe alone.
  MpsState export_state() const;

 private:
  friend class MpsOverlap;

  void apply_gate(const circ::Gate& g, const std::vector<double>& params,
                  bool adjoint);
  /// Gates [first_gate, last_gate) of a compiled run; with a recording
  /// (laid out for the whole stream), saves each segment as it starts.
  void run_compiled(const circ::CompiledCircuit& c,
                    const std::vector<double>& params, std::size_t first_gate,
                    std::size_t last_gate, MpsRecording* recording);
  /// Copies segment k's sites, bonds and truncation error into `recording`.
  void record_segment(MpsRecording& recording, std::size_t k) const;
  void apply_single(int site, const std::array<cplx, 4>& m);
  /// The environment left of site `lo` (dl_[lo] x dl_[lo], row-major).
  void initial_environment(std::size_t lo, std::vector<cplx>& e) const;
  void apply_two_adjacent(int left_site, const std::array<cplx, 16>& m_hi_lo,
                          bool left_is_hi);

  // Per-instance scratch for the two-site update: the contracted tensor M,
  // the Eq. (8) row weights, and the SVD workspace. Reused across gates so
  // the hot path stops allocating (five heap matrices per gate before this);
  // buffers grow to the largest bond shape seen and stay there. Safe because
  // an engine instance is single-threaded by contract (see below).
  struct TwoSiteScratch {
    // Working memory only: copying an engine (the gradients' prefix
    // branches) neither copies nor needs the source's buffer contents.
    TwoSiteScratch() = default;
    TwoSiteScratch(const TwoSiteScratch&) {}
    TwoSiteScratch& operator=(const TwoSiteScratch&) { return *this; }

    std::vector<cplx> m;            // M[(a i), (j b)], (dl*2) x (2*dr)
    std::vector<double> row_scale;  // lambda[a] replicated over i
    la::SvdWorkspace svd;
  };

  // B tensor storage: tensors_[k] has shape (dl_[k], 2, dr_[k]), row-major
  // flattening index = (a * 2 + i) * dr + b.
  int n_;
  MpsOptions options_;
  std::vector<std::vector<cplx>> tensors_;
  std::vector<std::size_t> dl_, dr_;
  std::vector<std::vector<double>> lambda_;  // lambda_[k]: bond between k,k+1
  // Residual logical→site permutation from compiled runs. Site tensors are
  // always indexed by *site*; this map is consulted only at the measurement
  // boundary (expectation, to_statevector).
  circ::QubitPermutation perm_;
  double truncation_error_ = 0.0;
  // Mutated only by the (non-const) apply paths. An engine instance is
  // single-threaded by contract: gate application, truncation accounting and
  // this scratch are all unsynchronized. Concurrent drivers (distributed VQE,
  // the thread pool) each own a private Mps.
  TwoSiteScratch scratch_;
};

/// <bra| O_site |ket> for two engines on the same sites, with the overlap
/// environments kept between calls: left_[s] contracts sites < s (bra rows,
/// ket columns), right_[s] sites > s (ket rows, bra columns). A caller that
/// changes sites [lo, hi] of either engine says so with touched(lo, hi),
/// which drops only the environments containing one of those sites; the
/// next local() extends the rest from the nearest valid ones. Both engines
/// must outlive the object. Serial; each environment update is one
/// transfer (two GEMMs per physical index), counted in
/// mps.transfer_site_ops, and the object counts one mps.transfer_sweeps.
class MpsOverlap {
 public:
  MpsOverlap(const Mps& bra, const Mps& ket);

  /// Sites lo..hi of either engine changed since the last call.
  void touched(int lo, int hi);
  /// <bra| op_site |ket>, op a 2x2 matrix row-major in |0>, |1>.
  cplx local(int site, const std::array<cplx, 4>& op);

 private:
  const Mps& bra_;
  const Mps& ket_;
  std::vector<std::vector<cplx>> left_, right_;
  int left_valid_ = 0;   ///< left_[0..left_valid_] are current
  int right_valid_ = 0;  ///< right_[right_valid_..n-1] are current
  std::vector<cplx> scratch_, insert_;
};

}  // namespace q2::sim
