// One- and two-electron integrals over contracted Cartesian Gaussians via
// the McMurchie-Davidson scheme (Hermite expansion coefficients E_t plus
// Hermite Coulomb tensors R_tuv built on the Boys function). This is the
// PySCF role in the paper's pipeline, built from scratch.
#pragma once

#include <vector>

#include "chem/basis.hpp"
#include "linalg/matrix.hpp"
#include "parallel/parallel_options.hpp"

namespace q2::chem {

/// Two-electron repulsion integrals in chemist notation (pq|rs), stored with
/// the full 8-fold permutational symmetry.
class EriTable {
 public:
  EriTable() = default;
  explicit EriTable(std::size_t n);

  std::size_t n() const { return n_; }
  double operator()(std::size_t p, std::size_t q, std::size_t r,
                    std::size_t s) const {
    return data_[index(p, q, r, s)];
  }
  void set(std::size_t p, std::size_t q, std::size_t r, std::size_t s,
           double value) {
    data_[index(p, q, r, s)] = value;
  }
  std::size_t unique_count() const { return data_.size(); }

 private:
  static std::size_t pair_index(std::size_t a, std::size_t b) {
    return a >= b ? a * (a + 1) / 2 + b : b * (b + 1) / 2 + a;
  }
  std::size_t index(std::size_t p, std::size_t q, std::size_t r,
                    std::size_t s) const {
    return pair_index(pair_index(p, q), pair_index(r, s));
  }
  std::size_t n_ = 0;
  std::vector<double> data_;
};

struct IntegralTables {
  la::RMatrix overlap;   ///< S_pq
  la::RMatrix kinetic;   ///< T_pq
  la::RMatrix nuclear;   ///< V_pq (attraction to all nuclei)
  EriTable eri;          ///< (pq|rs)
};

/// Individual integral primitives (exposed for testing).
double overlap_integral(const BasisFunction& a, const BasisFunction& b);
double kinetic_integral(const BasisFunction& a, const BasisFunction& b);
double nuclear_integral(const BasisFunction& a, const BasisFunction& b,
                        const std::array<double, 3>& nucleus, int z);
double eri_integral(const BasisFunction& a, const BasisFunction& b,
                    const BasisFunction& c, const BasisFunction& d);

/// All tables for a molecule/basis pair. The primitive-pair cache is built
/// first, on the caller; then the one-electron rows, the Schwarz diagonal
/// (pq|pq) and the ERI pair rows run as three passes of par::parallel_for
/// with `parallel`'s thread count (the default, 0, is the process-wide
/// count). Each entry is computed by one task with the same operations as a
/// serial pass, so the tables are bit-identical at every thread count, and
/// the ERI pass starts only after the diagonal pass has returned.
IntegralTables compute_integrals(const Molecule& molecule, const BasisSet& basis,
                                 const par::ParallelOptions& parallel = {});

}  // namespace q2::chem
