// Cross-run bench regression gate: compares a freshly produced BENCH_*.json
// against a committed baseline snapshot (bench/baselines/) with per-metric
// tolerance bands, and exits nonzero when a gated metric degraded beyond
// tolerance. Wired into ctest under the `perf` label, so the BENCH floors are
// an enforced trajectory rather than write-only artifacts.
//
//   bench_diff CANDIDATE.json BASELINE.json [--tol=0.5] [--strict]
//
// Metric direction is inferred from the key:
//   * "perf_floor_ok"                    — hard gate: must stay >= 1 when the
//                                          baseline held it.
//   * speedup / gflops / throughput /    — higher-better ratios, gated by
//     scaling / per_s / efficiency         default: machine-speed cancels out
//                                          of a ratio, so these travel well
//                                          between the snapshot host and CI.
//   * "*_sweeps"                         — deterministic iteration counts,
//                                          lower-better, gated by default.
//   * "*_swaps" / "*_updates"            — exact deterministic circuit-work
//                                          counts (compile pass output):
//                                          lower-better with ZERO tolerance —
//                                          any increase over the baseline is a
//                                          hard failure.
//   * "*_s" / "*_seconds" / "*_error"    — absolute timings and accuracy,
//                                          lower-better but machine-dependent;
//                                          informational unless --strict.
// Everything else is informational, and so is a key only the candidate
// has. A baseline key of a gated class that the candidate no longer emits is
// a regression: a deleted counter must leave its baseline in the same change.
//
// When both reports record `hardware_threads` and they differ, a warning is
// printed (scaling/speedup floors are only meaningful between hosts with the
// same thread budget); under --strict the mismatch is fatal (exit 2).
//
// The candidate's `host_capacity_2t` (bench_util's spin probe: two threads'
// throughput over one's, 2 = two free cores) is printed with the baseline's
// when it has one, so a ratio that failed in a busy window shows as such.
//
// Exit codes: 0 = within tolerance, 1 = regression, 2 = usage/IO/parse/
// host-mismatch error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace {

using q2::obs::Json;

constexpr double kDefaultTol = 0.5;

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool contains_any(const std::string& s,
                  std::initializer_list<const char*> needles) {
  for (const char* n : needles)
    if (s.find(n) != std::string::npos) return true;
  return false;
}

enum class Direction {
  kFloor,
  kHigherBetter,
  kLowerBetterGated,
  kLowerBetterExact,
  kInfo,
};

Direction classify(const std::string& key, bool strict) {
  if (key == "perf_floor_ok") return Direction::kFloor;
  // Ratio-like metrics first: "*_per_s" would otherwise match the "_s"
  // timing suffix below.
  if (contains_any(key, {"speedup", "gflops", "throughput", "scaling",
                         "per_s", "efficiency"}))
    return Direction::kHigherBetter;
  if (ends_with(key, "_sweeps")) return Direction::kLowerBetterGated;
  // Exact counts out of the deterministic compile pass: equal inputs must
  // produce equal (or better) outputs, so there is no tolerance band.
  if (ends_with(key, "_swaps") || ends_with(key, "_updates"))
    return Direction::kLowerBetterExact;
  if (ends_with(key, "_s") || ends_with(key, "_seconds") ||
      ends_with(key, "_error"))
    return strict ? Direction::kLowerBetterGated : Direction::kInfo;
  return Direction::kInfo;
}

std::map<std::string, double> numeric_fields(const Json& root) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : root.object) {
    if (value.type == Json::kNumber) out[key] = value.number;
    if (value.type == Json::kBool) out[key] = value.boolean ? 1.0 : 0.0;
  }
  return out;
}

Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

int run(int argc, char** argv) {
  double tol = kDefaultTol;
  bool strict = false;
  std::string candidate_path, baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tol=", 0) == 0) {
      tol = std::stod(arg.substr(6));
    } else if (arg == "--strict") {
      strict = true;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else {
      std::fprintf(stderr, "bench_diff: unexpected argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (baseline_path.empty()) {
    std::fprintf(
        stderr,
        "usage: bench_diff CANDIDATE.json BASELINE.json [--tol=X] [--strict]\n");
    return 2;
  }

  const std::map<std::string, double> cand =
      numeric_fields(load(candidate_path));
  const std::map<std::string, double> base =
      numeric_fields(load(baseline_path));

  // Scaling/speedup ratios only travel between hosts with comparable thread
  // budgets: a baseline captured on a 1-core runner holds floors a 16-core
  // candidate trivially beats (and vice versa, a many-core baseline fails a
  // small host spuriously). Surface the mismatch; make it fatal under
  // --strict so CI pins baseline and candidate to the same host class.
  {
    const auto cb = cand.find("hardware_threads");
    const auto bb = base.find("hardware_threads");
    if (cb != cand.end() && bb != base.end() && cb->second != bb->second) {
      std::fprintf(stderr,
                   "bench_diff: WARNING hardware_threads differ (baseline %g, "
                   "candidate %g); scaling/speedup comparisons are not "
                   "host-comparable%s\n",
                   bb->second, cb->second,
                   strict ? "" : " (pass --strict to make this fatal)");
      if (strict) return 2;
    }
  }

  std::printf("%-44s %14s %14s %8s  %s\n", "metric", "baseline", "candidate",
              "ratio", "status");
  int regressions = 0;
  std::size_t compared = 0;
  for (const auto& [key, base_v] : base) {
    const auto it = cand.find(key);
    if (it == cand.end()) {
      const bool gated = classify(key, strict) != Direction::kInfo;
      if (gated) ++regressions;
      std::printf("%-44s %14.6g %14s %8s  %s\n", key.c_str(), base_v, "-", "-",
                  gated ? "MISSING" : "missing (info)");
      continue;
    }
    const double cand_v = it->second;
    ++compared;
    const double ratio = base_v != 0.0 ? cand_v / base_v : 0.0;
    const char* status = "info";
    switch (classify(key, strict)) {
      case Direction::kFloor:
        status = (base_v >= 1.0 && cand_v < 1.0) ? "REGRESSED" : "ok";
        break;
      case Direction::kHigherBetter:
        status = cand_v < base_v * (1.0 - tol) ? "REGRESSED" : "ok";
        break;
      case Direction::kLowerBetterGated:
        status = cand_v > base_v * (1.0 + tol) ? "REGRESSED" : "ok";
        break;
      case Direction::kLowerBetterExact:
        status = cand_v > base_v ? "REGRESSED" : "ok";
        break;
      case Direction::kInfo:
        break;
    }
    if (std::strcmp(status, "REGRESSED") == 0) ++regressions;
    std::printf("%-44s %14.6g %14.6g %8.3f  %s\n", key.c_str(), base_v, cand_v,
                ratio, status);
  }
  for (const auto& [key, cand_v] : cand)
    if (!base.count(key))
      std::printf("%-44s %14s %14.6g %8s  %s\n", key.c_str(), "-", cand_v, "-",
                  "new (info)");

  if (const auto c = cand.find("host_capacity_2t"); c != cand.end()) {
    std::printf("host_capacity_2t: candidate %.3g", c->second);
    if (const auto b = base.find("host_capacity_2t"); b != base.end())
      std::printf(", baseline %.3g", b->second);
    std::printf(" (2 = two free cores)\n");
  }

  if (compared == 0) {
    std::fprintf(stderr, "bench_diff: no shared numeric metrics between %s and %s\n",
                 candidate_path.c_str(), baseline_path.c_str());
    return 2;
  }
  if (regressions > 0) {
    std::printf("bench_diff: %d metric(s) missing or regressed beyond "
                "tolerance %.2f\n",
                regressions, tol);
    return 1;
  }
  std::printf("bench_diff: %zu metric(s) within tolerance %.2f\n", compared,
              tol);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
