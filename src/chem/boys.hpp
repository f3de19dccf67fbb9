// Boys function F_n(x) = \int_0^1 t^{2n} e^{-x t^2} dt, the special function
// at the heart of every Gaussian Coulomb integral.
#pragma once

namespace q2::chem {

/// F_0 .. F_{n_max} evaluated at x (x >= 0) into f[0 .. n_max], numerically
/// stable across the small-x (series + downward recursion) and large-x
/// (asymptotic + upward recursion) regimes.
void boys(int n_max, double x, double* f);

}  // namespace q2::chem
