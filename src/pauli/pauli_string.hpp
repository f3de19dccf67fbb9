// Packed Pauli strings: an element of {I, X, Y, Z}^{⊗n} stored as X/Z bit
// masks. These label the measurement circuits of Eq. (2); the phase produced
// by multiplication is returned separately so QubitOperator can fold it into
// coefficients.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace q2::pauli {

enum class P : std::uint8_t { I = 0, X = 1, Z = 2, Y = 3 };

class PauliString {
 public:
  PauliString() = default;
  explicit PauliString(std::size_t n_qubits);
  /// Parse e.g. "X0 Y2 Z5" (identity on unnamed qubits).
  static PauliString parse(std::size_t n_qubits, const std::string& text);

  std::size_t n_qubits() const { return n_; }

  P get(std::size_t q) const;
  void set(std::size_t q, P p);

  bool is_identity() const;
  /// Number of non-identity sites.
  std::size_t weight() const;
  /// Indices of non-identity sites, ascending.
  std::vector<std::size_t> support() const;
  /// [first, last] non-identity site; identity returns {0, 0}.
  std::pair<std::size_t, std::size_t> support_range() const;

  bool commutes_with(const PauliString& other) const;

  /// The same operator relabelled through a logical→site map: the Pauli on
  /// logical qubit q moves to site site_of[q]. `site_of` must be a
  /// permutation of [0, n).
  PauliString permuted(const std::vector<int>& site_of) const;

  bool operator==(const PauliString& other) const {
    return n_ == other.n_ && x_ == other.x_ && z_ == other.z_;
  }

  std::string str() const;

  struct Hash {
    std::size_t operator()(const PauliString& s) const;
  };
  /// Hash's value for the string on n qubits with these masks ((n + 63) / 64
  /// words each), without building it.
  static std::size_t hash_masks(std::size_t n, const std::uint64_t* x,
                                const std::uint64_t* z);

  /// 2x2 matrix of the Pauli at site q (row-major, basis |0>, |1>).
  static void single_qubit_matrix(P p, cplx out[4]);

  const std::vector<std::uint64_t>& x_mask() const { return x_; }
  const std::vector<std::uint64_t>& z_mask() const { return z_; }
  /// Overwrites both masks in place from (n + 63) / 64 words each; bits at
  /// or above n must be clear.
  void assign_masks(const std::uint64_t* x, const std::uint64_t* z);

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> x_, z_;
};

/// a * b = i^phase_exponent * result; exponent is modulo 4.
std::pair<PauliString, int> multiply(const PauliString& a, const PauliString& b);

}  // namespace q2::pauli
