// Checkpoint I/O throughput: snapshot encode + durable write (tmp/fsync/
// rename) and read + validate (CRC per section) of the optimizer state a VQE
// snapshot stores, for ansatze of increasing parameter count. The payload is
// an L-BFGS state with a full curvature ring (10 pairs) and 200 history
// entries, so the bytes grow with 22 doubles per parameter.
//
//   ./bench_ckpt [--json=BENCH_ckpt.json] [--trace=...] [--report=...]
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "ckpt/serialize.hpp"
#include "ckpt/snapshot.hpp"
#include "common/rng.hpp"

namespace {

using namespace q2;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A mid-run L-BFGS state over n parameters, every vector filled.
vqe::OptimizerState lbfgs_state(std::size_t n, Rng& rng) {
  constexpr std::size_t kCurvaturePairs = 10;  // L-BFGS's full ring
  constexpr std::size_t kHistory = 200;
  auto random = [&](std::size_t size) {
    std::vector<double> v(size);
    for (double& x : v) x = rng.normal();
    return v;
  };
  vqe::OptimizerState s;
  s.initialized = true;
  s.iteration = int(kHistory) - 1;
  s.energy = -1.0;
  s.parameters = random(n);
  s.gradient = random(n);
  s.history = random(kHistory);
  for (std::size_t k = 0; k < kCurvaturePairs; ++k) {
    s.lbfgs_s.push_back(random(n));
    s.lbfgs_y.push_back(random(n));
  }
  s.lbfgs_rho = random(kCurvaturePairs);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  // Accept --json=BENCH_<name>.json (same contract as bench_kernels); the
  // report lands in BENCH_ckpt.json either way unless the flag renames it.
  std::string report_name = "ckpt";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      const std::string path = arg.substr(7);
      const std::size_t from = path.rfind("BENCH_");
      const std::size_t to = path.rfind(".json");
      if (from != std::string::npos && to != std::string::npos && from + 6 < to)
        report_name = path.substr(from + 6, to - from - 6);
    }
  }
  bench::BenchReport report(report_name);

  constexpr int kReps = 20;
  const std::string path = "bench_ckpt_snapshot.tmp";
  Rng rng(2022);

  bench::header("Checkpoint snapshot throughput vs VQE parameter count");
  bench::row({"P", "bytes", "write (s)", "read (s)", "write MB/s",
              "read MB/s"});

  for (std::size_t n : {1000, 10000, 50000, 100000}) {
    const vqe::OptimizerState state = lbfgs_state(n, rng);
    ckpt::ByteWriter w;
    ckpt::write_optimizer_state(w, state);
    ckpt::Snapshot snap;
    snap.set("optimizer", w.take());
    const double bytes = double(snap.encoded_bytes());

    Timer write_timer;
    for (int r = 0; r < kReps; ++r) snap.write_file(path);
    const double write_s = write_timer.seconds() / kReps;

    Timer read_timer;
    for (int r = 0; r < kReps; ++r) {
      const auto back = ckpt::Snapshot::read_file(path);
      if (!back) throw Error("bench_ckpt: snapshot failed validation");
    }
    const double read_s = read_timer.seconds() / kReps;

    // Round trip sanity: the decoded state must carry the same bits.
    {
      const auto back = ckpt::Snapshot::read_file(path);
      ckpt::ByteReader r(back->at("optimizer"));
      const vqe::OptimizerState b = ckpt::read_optimizer_state(r);
      bool same = r.at_end() && b.iteration == state.iteration &&
                  same_bits(b.parameters, state.parameters) &&
                  same_bits(b.gradient, state.gradient) &&
                  same_bits(b.history, state.history) &&
                  same_bits(b.lbfgs_rho, state.lbfgs_rho) &&
                  b.lbfgs_s.size() == state.lbfgs_s.size() &&
                  b.lbfgs_y.size() == state.lbfgs_y.size();
      for (std::size_t k = 0; same && k < state.lbfgs_s.size(); ++k)
        same = same_bits(b.lbfgs_s[k], state.lbfgs_s[k]) &&
               same_bits(b.lbfgs_y[k], state.lbfgs_y[k]);
      if (!same) throw Error("bench_ckpt: round trip mismatch");
    }

    const double mb = bytes / (1024.0 * 1024.0);
    bench::row({std::to_string(n), std::to_string(std::size_t(bytes)),
                bench::fmte(write_s), bench::fmte(read_s),
                bench::fmt(mb / write_s, 1), bench::fmt(mb / read_s, 1)});
    const std::string p = std::to_string(n);
    report.set("bytes_P" + p, bytes);
    report.set("write_mb_s_P" + p, mb / write_s);
    report.set("read_mb_s_P" + p, mb / read_s);
  }
  std::remove(path.c_str());
  return 0;
}
