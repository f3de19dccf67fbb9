#include "chem/boys.hpp"

#include <cmath>

#include "common/types.hpp"

namespace q2::chem {

void boys(int n_max, double x, double* f) {
  require(n_max >= 0 && x >= 0, "boys: bad arguments");

  if (x < 1e-13) {
    for (int n = 0; n <= n_max; ++n) f[n] = 1.0 / (2 * n + 1);
    return;
  }

  if (x < 35.0) {
    // Series for the highest order: F_n(x) = e^{-x} sum_k (2n-1)!! (2x)^k /
    // (2n+2k+1)!! — converges fast for x < ~35 — then stable downward
    // recursion F_{n-1} = (2x F_n + e^{-x}) / (2n - 1).
    const double ex = std::exp(-x);
    double term = 1.0 / (2 * n_max + 1);
    double sum = term;
    for (int k = 1; k < 200; ++k) {
      term *= 2.0 * x / (2 * n_max + 2 * k + 1);
      sum += term;
      if (term < 1e-17 * sum) break;
    }
    f[n_max] = ex * sum;
    for (int n = n_max; n >= 1; --n)
      f[n - 1] = (2.0 * x * f[n] + ex) / (2 * n - 1);
    return;
  }

  // Large x: F_0 ~ sqrt(pi / x) / 2 (the e^{-x} tail is below machine
  // epsilon), then upward recursion is stable.
  const double ex = std::exp(-x);
  f[0] = 0.5 * std::sqrt(kPi / x);
  for (int n = 0; n < n_max; ++n)
    f[n + 1] = ((2 * n + 1) * f[n] - ex) / (2.0 * x);
}

}  // namespace q2::chem
