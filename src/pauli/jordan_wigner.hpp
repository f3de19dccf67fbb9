// Fermionic ladder operators and the Jordan-Wigner transformation mapping
// them to qubit operators (the OpenFermion role in the paper's pipeline).
// Spin-orbital p maps to qubit p; a_p carries a Z string on qubits < p.
#pragma once

#include <span>
#include <vector>

#include "pauli/qubit_operator.hpp"

namespace q2::pauli {

/// One ladder operator: orbital index + creation flag.
struct Ladder {
  std::size_t orbital;
  bool dagger;
};

/// A normal-ordered-agnostic fermionic operator: sum of coeff * products of
/// ladder operators (applied left to right as written).
class FermionOperator {
 public:
  explicit FermionOperator(std::size_t n_modes) : n_(n_modes) {}

  std::size_t n_modes() const { return n_; }

  void add_term(std::vector<Ladder> ops, cplx coeff);
  const std::vector<std::pair<std::vector<Ladder>, cplx>>& terms() const {
    return terms_;
  }

  FermionOperator& operator+=(const FermionOperator& o);
  FermionOperator& operator*=(cplx s);

  /// The Hermitian conjugate (reverses products, flips daggers, conjugates).
  FermionOperator adjoint() const;

 private:
  std::size_t n_;
  std::vector<std::pair<std::vector<Ladder>, cplx>> terms_;
};

/// The Jordan-Wigner image of a sum of ladder products, taken one product
/// at a time in bit form: no FermionOperator and no operator algebra.
///
/// A ladder image is ½·(Z-string X_p) ± (i/2)·(Z-string Y_p), + for a_p. A
/// product of k ladders expands into 2^k strings built from X/Z masks; the
/// i-exponent of the running product picks up 2 per Z already on the
/// ladder's qubit and 2 per Y of an annihilator, and the conversion back to
/// X/Y/Z letters closes it with one popcount. Strings that coincide within
/// a product are merged by integer counts, so each string's value is
/// coeff·(±1 or ±i)·2^-m exactly, the same double the ladder-by-ladder
/// operator product forms; a product's string is dropped when its |value|
/// is <= 1e-14, the strings that product drops with a compress(1e-14)
/// after each ladder. Products are summed in the order they are added.
class JordanWignerAccumulator {
 public:
  /// The expansion holds 2^k strings for a product of k ladders.
  static constexpr std::size_t kMaxLadders = 16;

  explicit JordanWignerAccumulator(std::size_t n_qubits);

  /// Adds coeff * ops[0] ops[1] ... (applied left to right as written), a
  /// product of at most kMaxLadders ladders.
  void add(std::span<const Ladder> ops, cplx coeff);

  /// The summed image with |coeff| <= 1e-12 dropped; leaves the sum empty.
  QubitOperator take();

 private:
  /// sum += value at the string with masks key = (X words, Z words).
  void accumulate(const std::uint64_t* key, cplx value);
  void grow();
  /// The key's start slot: PauliString::Hash with its high bits folded into
  /// the low ones that a power-of-two index keeps.
  std::size_t slot(const std::uint64_t* key) const;

  std::size_t n_, words_;
  // The running sum, one entry per distinct string in first-seen order: its
  // masks (2 * words_ words), its coefficient, and an open-addressing index
  // of entry + 1 (0 = empty), kept at most half full.
  std::vector<std::uint64_t> keys_;
  std::vector<cplx> sum_;
  std::vector<std::uint32_t> slots_;
  // Per-product scratch, reused: the key being added (the product's X mask,
  // then a string's Z mask), each expanded string's Z mask, i-exponent and
  // coincidence class, and each class's unit counts.
  std::vector<std::uint64_t> probe_, z_;
  std::vector<int> phase_;
  std::vector<std::size_t> class_;
  std::vector<int> re_, im_;
};

/// Jordan-Wigner images of single ladder operators.
QubitOperator jw_annihilation(std::size_t n_qubits, std::size_t p);
QubitOperator jw_creation(std::size_t n_qubits, std::size_t p);
/// Number operator a_p^dagger a_p = (I - Z_p) / 2.
QubitOperator jw_number(std::size_t n_qubits, std::size_t p);

/// Full transform of a fermionic operator, through JordanWignerAccumulator.
QubitOperator jordan_wigner(const FermionOperator& op);

}  // namespace q2::pauli
