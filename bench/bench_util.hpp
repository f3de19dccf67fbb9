// Shared helpers for the figure-regeneration benches: chemistry pipeline
// shortcuts, aligned table printing, telemetry flag plumbing, and the
// BENCH_<name>.json result writer that feeds the perf-trajectory file set.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_options.hpp"

namespace q2::bench {

/// Call first thing in main(): consumes the shared telemetry flags
/// (--trace= / --report= / --metrics=, or the Q2_* environment variables) so
/// every bench can emit a Chrome trace, a JSONL run report, and a metrics
/// dump without per-binary plumbing, plus --threads=N (or Q2_THREADS) for
/// the on-node parallel loops.
inline void init(int& argc, char** argv) {
  obs::configure_from_args(argc, argv);
  par::configure_threads_from_args(argc, argv);
}

/// Total wall time (seconds) of every profile node with this span name,
/// summed across call paths.
inline double span_seconds(const std::vector<obs::ProfileNode>& nodes,
                           const char* name) {
  double us = 0;
  for (const auto& node : nodes)
    if (node.name == name) us += node.total_us;
  return us * 1e-6;
}

/// The host's capacity for a second thread at the time of the call: two
/// threads' throughput on a fixed integer spin loop over one thread's, best
/// of 5 rounds within 50 ms. 2 means two free cores; a thread-scaling ratio
/// measured while this reads near 1 had no second core to scale onto.
inline double host_capacity_2t() {
  using Clock = std::chrono::steady_clock;
  const auto spin = [](std::uint64_t x) {
    // A dependent xorshift chain: about 2 ms on one core.
    for (int i = 0; i < (1 << 20); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  const auto seconds = [&](bool two_threads) {
    const Clock::time_point t0 = Clock::now();
    std::thread helper;
    if (two_threads) helper = std::thread([&] { sink += spin(sink + 1); });
    sink += spin(sink + 2);
    if (helper.joinable()) helper.join();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  double one = 0.0, two = 0.0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < 5; ++round) {
    const Clock::time_point t0 = Clock::now();
    const double t1 = seconds(false), t2 = seconds(true);
    one = round == 0 ? t1 : std::min(one, t1);
    two = round == 0 ? t2 : std::min(two, t2);
    // Stop before a round that would end past the budget.
    const Clock::time_point now = Clock::now();
    if (now + (now - t0) - start > std::chrono::milliseconds(50)) break;
  }
  return 2.0 * one / two;
}

/// Collects one benchmark's headline results and writes them to
/// BENCH_<name>.json in the working directory: benchmark name, total wall
/// time, the host's capacity when it was written (host_capacity_2t(), an
/// informational key), caller-set key figures, and the key telemetry
/// counters at the time of write(). The destructor writes if the caller
/// didn't.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() {
    if (!written_) write();
  }

  void set(const std::string& key, obs::JsonValue value) {
    fields_.emplace_back(key, std::move(value));
  }

  bool write() {
    written_ = true;
    std::vector<obs::JsonField> counters;
    for (const auto& [cname, v] : obs::Registry::global().snapshot().counters)
      counters.emplace_back(cname, v);
    std::vector<obs::JsonField> all;
    all.emplace_back("name", name_);
    all.emplace_back("wall_seconds", timer_.seconds());
    all.emplace_back("host_capacity_2t", host_capacity_2t());
    all.insert(all.end(), fields_.begin(), fields_.end());
    all.emplace_back("counters",
                     obs::JsonValue::raw(obs::json_object(counters)));
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::string json = obs::json_object(all);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    return std::fclose(f) == 0;
  }

 private:
  std::string name_;
  Timer timer_;
  std::vector<obs::JsonField> fields_;
  bool written_ = false;
};

/// The BenchReport name a `--json=` flag value asks for: BENCH_<name>.json,
/// with the BENCH_ prefix and the .json suffix optional; `fallback` when
/// nothing is left.
inline std::string json_flag_name(std::string value,
                                  const std::string& fallback) {
  if (value.rfind("BENCH_", 0) == 0) value = value.substr(6);
  const std::size_t dot = value.rfind(".json");
  if (dot != std::string::npos) value = value.substr(0, dot);
  return value.empty() ? fallback : value;
}

struct SolvedMolecule {
  chem::Molecule molecule;
  chem::ScfResult scf;
  chem::MoIntegrals mo;
};

inline SolvedMolecule solve(const chem::Molecule& mol,
                            const std::string& basis_name = "sto-3g") {
  SolvedMolecule s{mol, {}, {}};
  const chem::BasisSet basis = chem::BasisSet::build(mol, basis_name);
  const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
  s.scf = chem::rhf(mol, basis, ints);
  if (!s.scf.converged) throw Error("bench: RHF failed to converge");
  s.mo = chem::transform_to_mo(ints, s.scf.coefficients,
                               s.scf.nuclear_repulsion);
  return s;
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%-18s", c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmte(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

}  // namespace q2::bench
