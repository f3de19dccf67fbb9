#include "ckpt/serialize.hpp"

namespace q2::ckpt {
namespace {

// Per-type tags guard against sections being decoded as the wrong type after
// a format mix-up; bumping a tag is the cheap way to version one serializer.
// Tags are part of the on-disk format: keep their values so existing
// snapshots still load. Retired: 0x14 (an mt19937_64 stream) and 0x16 (the
// optimizer state with Adam's moments).
constexpr std::uint8_t kTagMps = 0x15;
constexpr std::uint8_t kTagOptimizer = 0x17;

void expect_tag(ByteReader& r, std::uint8_t tag) {
  require(r.u8() == tag, "ckpt: section type tag mismatch");
}

}  // namespace

void write_mps(ByteWriter& w, const sim::MpsState& s) {
  w.u8(kTagMps);
  w.i32(s.n_qubits);
  w.u64(s.max_bond);
  w.f64(s.svd_cutoff);
  // Canonical-form tag: 0 = right-canonical, center at site 0 (the only form
  // the engine produces today; future mixed-canonical engines extend this).
  w.u8(0);
  w.vec(s.dl);
  w.vec(s.dr);
  w.vec(s.tensors);
  w.vec(s.lambda);
  w.f64(s.truncation_error);
}

sim::MpsState read_mps(ByteReader& r) {
  expect_tag(r, kTagMps);
  sim::MpsState s;
  s.n_qubits = r.i32();
  s.max_bond = std::size_t(r.u64());
  s.svd_cutoff = r.f64();
  require(r.u8() == 0, "ckpt: unknown MPS canonical form");
  s.dl = r.vec_u64();
  s.dr = r.vec_u64();
  s.tensors = r.vec_vec_c128();
  s.lambda = r.vec_vec_f64();
  s.truncation_error = r.f64();
  return s;
}

void write_optimizer_state(ByteWriter& w, const vqe::OptimizerState& s) {
  w.u8(kTagOptimizer);
  w.b(s.initialized);
  w.b(s.finished);
  w.b(s.converged);
  w.i32(s.iteration);
  w.f64(s.energy);
  w.vec(s.parameters);
  w.vec(s.gradient);
  w.vec(s.history);
  w.vec(s.lbfgs_s);
  w.vec(s.lbfgs_y);
  w.vec(s.lbfgs_rho);
}

vqe::OptimizerState read_optimizer_state(ByteReader& r) {
  expect_tag(r, kTagOptimizer);
  vqe::OptimizerState s;
  s.initialized = r.b();
  s.finished = r.b();
  s.converged = r.b();
  s.iteration = r.i32();
  s.energy = r.f64();
  s.parameters = r.vec_f64();
  s.gradient = r.vec_f64();
  s.history = r.vec_f64();
  s.lbfgs_s = r.vec_vec_f64();
  s.lbfgs_y = r.vec_vec_f64();
  s.lbfgs_rho = r.vec_f64();
  require(s.lbfgs_s.size() == s.lbfgs_y.size() &&
              s.lbfgs_s.size() == s.lbfgs_rho.size(),
          "ckpt: inconsistent L-BFGS curvature history");
  return s;
}

}  // namespace q2::ckpt
