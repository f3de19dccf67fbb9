// Linear combinations of Pauli strings with complex coefficients — the qubit
// form of the electronic Hamiltonian (Eq. 2) and of the UCC generator. The
// algebra (+, *, scalar) is exact; compress() drops numerically zero terms.
#pragma once

#include <unordered_map>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace q2::pauli {

class QubitOperator {
 public:
  using TermMap = std::unordered_map<PauliString, cplx, PauliString::Hash>;

  QubitOperator() = default;
  explicit QubitOperator(std::size_t n_qubits) : n_(n_qubits) {}
  static QubitOperator identity(std::size_t n_qubits, cplx coeff = 1.0);
  /// Single Pauli term, e.g. QubitOperator::term(4, "X0 Z1", 0.5).
  static QubitOperator term(std::size_t n_qubits, const std::string& pauli,
                            cplx coeff = 1.0);

  std::size_t n_qubits() const { return n_; }
  std::size_t size() const { return terms_.size(); }
  const TermMap& terms() const { return terms_; }

  void add(const PauliString& p, cplx coeff);

  QubitOperator& operator+=(const QubitOperator& o);
  QubitOperator& operator-=(const QubitOperator& o);
  QubitOperator& operator*=(cplx s);
  QubitOperator operator*(const QubitOperator& o) const;
  friend QubitOperator operator+(QubitOperator a, const QubitOperator& b) {
    return a += b;
  }
  friend QubitOperator operator-(QubitOperator a, const QubitOperator& b) {
    return a -= b;
  }
  friend QubitOperator operator*(QubitOperator a, cplx s) { return a *= s; }
  friend QubitOperator operator*(cplx s, QubitOperator a) { return a *= s; }

  /// A - A^dagger would be zero for Hermitian A; this returns the adjoint.
  QubitOperator adjoint() const;
  bool is_hermitian(double tol = 1e-10) const;

  /// Drop terms with |coeff| <= tol.
  void compress(double tol = 1e-12);

  /// Coefficient of the identity string (energy shift).
  cplx constant() const;

  /// Terms as a stable, deterministic list (sorted by weight, then by
  /// str() label) — the circuit-per-Pauli-term distribution of Fig. 4
  /// iterates this.
  std::vector<std::pair<PauliString, cplx>> sorted_terms() const;

  std::string str(std::size_t max_terms = 12) const;

 private:
  std::size_t n_ = 0;
  TermMap terms_;
};

}  // namespace q2::pauli
