// Deterministic random sources for tests and benchmarks. Every stochastic
// routine in the library takes an explicit Rng so runs are reproducible.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "common/types.hpp"

namespace q2 {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 12345) : engine_(seed) {}

  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  cplx complex_normal() { return {normal(), normal()}; }
  /// Uniform integer in [0, n); returns 0 when n == 0. (The naive
  /// uniform_int_distribution(0, n - 1) underflows to the full size_t range
  /// on an empty domain — a real UB bug fixed with a regression test.)
  std::size_t index(std::size_t n) {
    if (n == 0) return 0;
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  std::vector<cplx> complex_vector(std::size_t n) {
    std::vector<cplx> v(n);
    for (auto& z : v) z = complex_normal();
    return v;
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace q2
