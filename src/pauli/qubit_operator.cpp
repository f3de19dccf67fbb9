#include "pauli/qubit_operator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

namespace q2::pauli {
namespace {

cplx i_power(int k) {
  switch (((k % 4) + 4) % 4) {
    case 0: return {1, 0};
    case 1: return {0, 1};
    case 2: return {-1, 0};
    default: return {0, -1};
  }
}

}  // namespace

QubitOperator QubitOperator::identity(std::size_t n_qubits, cplx coeff) {
  QubitOperator op(n_qubits);
  op.add(PauliString(n_qubits), coeff);
  return op;
}

QubitOperator QubitOperator::term(std::size_t n_qubits, const std::string& pauli,
                                  cplx coeff) {
  QubitOperator op(n_qubits);
  op.add(PauliString::parse(n_qubits, pauli), coeff);
  return op;
}

void QubitOperator::add(const PauliString& p, cplx coeff) {
  require(p.n_qubits() == n_, "QubitOperator::add: qubit count mismatch");
  terms_[p] += coeff;
}

QubitOperator& QubitOperator::operator+=(const QubitOperator& o) {
  require(n_ == o.n_, "QubitOperator+=: qubit count mismatch");
  for (const auto& [p, c] : o.terms_) terms_[p] += c;
  return *this;
}

QubitOperator& QubitOperator::operator-=(const QubitOperator& o) {
  require(n_ == o.n_, "QubitOperator-=: qubit count mismatch");
  for (const auto& [p, c] : o.terms_) terms_[p] -= c;
  return *this;
}

QubitOperator& QubitOperator::operator*=(cplx s) {
  for (auto& [p, c] : terms_) c *= s;
  return *this;
}

QubitOperator QubitOperator::operator*(const QubitOperator& o) const {
  require(n_ == o.n_, "QubitOperator*: qubit count mismatch");
  QubitOperator r(n_);
  for (const auto& [pa, ca] : terms_) {
    for (const auto& [pb, cb] : o.terms_) {
      auto [p, k] = multiply(pa, pb);
      r.terms_[p] += ca * cb * i_power(k);
    }
  }
  return r;
}

QubitOperator QubitOperator::adjoint() const {
  QubitOperator r(n_);
  for (const auto& [p, c] : terms_) r.terms_[p] = std::conj(c);
  return r;
}

bool QubitOperator::is_hermitian(double tol) const {
  for (const auto& [p, c] : terms_)
    if (std::abs(c.imag()) > tol) return false;
  return true;
}

void QubitOperator::compress(double tol) {
  for (auto it = terms_.begin(); it != terms_.end();) {
    if (std::abs(it->second) <= tol)
      it = terms_.erase(it);
    else
      ++it;
  }
}

cplx QubitOperator::constant() const {
  const auto it = terms_.find(PauliString(n_));
  return it == terms_.end() ? cplx{} : it->second;
}

std::vector<std::pair<PauliString, cplx>> QubitOperator::sorted_terms() const {
  // Each term's (weight, label) key is built once, not per comparison.
  // Labels are unique, so the order is total.
  struct Keyed {
    std::size_t weight;
    std::string label;
    const TermMap::value_type* term;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(terms_.size());
  for (const auto& t : terms_)
    keyed.push_back({t.first.weight(), t.first.str(), &t});
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.weight, a.label) < std::tie(b.weight, b.label);
  });
  std::vector<std::pair<PauliString, cplx>> v;
  v.reserve(keyed.size());
  for (const Keyed& k : keyed) v.push_back(*k.term);
  return v;
}

std::string QubitOperator::str(std::size_t max_terms) const {
  std::ostringstream out;
  std::size_t shown = 0;
  for (const auto& [p, c] : sorted_terms()) {
    if (shown++ >= max_terms) {
      out << "  ... (" << terms_.size() << " terms total)\n";
      break;
    }
    out << "  (" << c.real() << (c.imag() >= 0 ? "+" : "") << c.imag()
        << "i) * " << p.str() << "\n";
  }
  return out.str();
}

}  // namespace q2::pauli
