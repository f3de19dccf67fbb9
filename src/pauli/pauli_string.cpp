#include "pauli/pauli_string.hpp"

#include <algorithm>
#include <sstream>

namespace q2::pauli {
namespace {

std::size_t words_for(std::size_t n) { return (n + 63) / 64; }

int popcount_and(const std::vector<std::uint64_t>& a,
                 const std::vector<std::uint64_t>& b) {
  int c = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    c += __builtin_popcountll(a[i] & b[i]);
  return c;
}

}  // namespace

PauliString::PauliString(std::size_t n_qubits)
    : n_(n_qubits), x_(words_for(n_qubits), 0), z_(words_for(n_qubits), 0) {}

PauliString PauliString::parse(std::size_t n_qubits, const std::string& text) {
  PauliString s(n_qubits);
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    require(tok.size() >= 2, "PauliString::parse: bad token");
    const char c = tok[0];
    const std::size_t q = std::stoul(tok.substr(1));
    require(q < n_qubits, "PauliString::parse: qubit out of range");
    switch (c) {
      case 'X': s.set(q, P::X); break;
      case 'Y': s.set(q, P::Y); break;
      case 'Z': s.set(q, P::Z); break;
      case 'I': s.set(q, P::I); break;
      default: throw Error("PauliString::parse: unknown Pauli letter");
    }
  }
  return s;
}

P PauliString::get(std::size_t q) const {
  const std::size_t w = q / 64, b = q % 64;
  const int x = int((x_[w] >> b) & 1), z = int((z_[w] >> b) & 1);
  return P(x | (z << 1));
}

void PauliString::set(std::size_t q, P p) {
  require(q < n_, "PauliString::set: qubit out of range");
  const std::size_t w = q / 64, b = q % 64;
  const std::uint64_t mask = std::uint64_t(1) << b;
  const int v = int(p);
  x_[w] = (x_[w] & ~mask) | ((v & 1) ? mask : 0);
  z_[w] = (z_[w] & ~mask) | ((v & 2) ? mask : 0);
}

bool PauliString::is_identity() const {
  for (std::size_t i = 0; i < x_.size(); ++i)
    if (x_[i] | z_[i]) return false;
  return true;
}

std::size_t PauliString::weight() const {
  std::size_t c = 0;
  for (std::size_t i = 0; i < x_.size(); ++i)
    c += std::size_t(__builtin_popcountll(x_[i] | z_[i]));
  return c;
}

std::vector<std::size_t> PauliString::support() const {
  std::vector<std::size_t> s;
  for (std::size_t q = 0; q < n_; ++q)
    if (get(q) != P::I) s.push_back(q);
  return s;
}

std::pair<std::size_t, std::size_t> PauliString::support_range() const {
  std::size_t lo = 0, hi = 0;
  bool found = false;
  for (std::size_t q = 0; q < n_; ++q) {
    if (get(q) != P::I) {
      if (!found) lo = q;
      hi = q;
      found = true;
    }
  }
  return {lo, hi};
}

bool PauliString::commutes_with(const PauliString& other) const {
  require(n_ == other.n_, "commutes_with: qubit count mismatch");
  // Symplectic form: strings anticommute iff sum over qubits of
  // (x1 z2 + z1 x2) is odd.
  const int k = popcount_and(x_, other.z_) + popcount_and(z_, other.x_);
  return (k % 2) == 0;
}

PauliString PauliString::permuted(const std::vector<int>& site_of) const {
  require(site_of.size() == n_, "permuted: map size mismatch");
  PauliString r(n_);
  for (std::size_t q = 0; q < n_; ++q) {
    const P p = get(q);
    if (p == P::I) continue;
    const int s = site_of[q];
    require(s >= 0 && std::size_t(s) < n_, "permuted: site out of range");
    r.set(std::size_t(s), p);
  }
  return r;
}

std::string PauliString::str() const {
  if (is_identity()) return "I";
  std::string out;
  for (std::size_t q = 0; q < n_; ++q) {
    const P p = get(q);
    if (p == P::I) continue;
    if (!out.empty()) out += ' ';
    out += "IXZY"[int(p)];
    out += std::to_string(q);
  }
  return out;
}

void PauliString::assign_masks(const std::uint64_t* x, const std::uint64_t* z) {
  std::copy(x, x + x_.size(), x_.begin());
  std::copy(z, z + z_.size(), z_.begin());
}

std::size_t PauliString::hash_masks(std::size_t n, const std::uint64_t* x,
                                    const std::uint64_t* z) {
  const std::size_t words = words_for(n);
  std::size_t h = n * 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < words; ++i) h = (h ^ x[i]) * 0x100000001b3ull;
  for (std::size_t i = 0; i < words; ++i) h = (h ^ z[i]) * 0x100000001b3ull;
  return h;
}

std::size_t PauliString::Hash::operator()(const PauliString& s) const {
  return hash_masks(s.n_, s.x_.data(), s.z_.data());
}

void PauliString::single_qubit_matrix(P p, cplx out[4]) {
  switch (p) {
    case P::I: out[0] = 1; out[1] = 0; out[2] = 0; out[3] = 1; break;
    case P::X: out[0] = 0; out[1] = 1; out[2] = 1; out[3] = 0; break;
    case P::Y: out[0] = 0; out[1] = {0, -1}; out[2] = {0, 1}; out[3] = 0; break;
    case P::Z: out[0] = 1; out[1] = 0; out[2] = 0; out[3] = -1; break;
  }
}

std::pair<PauliString, int> multiply(const PauliString& a, const PauliString& b) {
  require(a.n_qubits() == b.n_qubits(), "multiply: qubit count mismatch");
  PauliString r(a.n_qubits());
  int phase = 0;  // exponent of i, mod 4
  // Phase table: row = left Pauli, col = right Pauli, value = i-exponent of
  // the product (e.g. X*Y = iZ -> 1, Y*X = -iZ -> 3). Index order I,X,Z,Y.
  static constexpr int kPhase[4][4] = {
      //            I  X  Z  Y
      /* I */      {0, 0, 0, 0},
      /* X */      {0, 0, 3, 1},
      /* Z */      {0, 1, 0, 3},
      /* Y */      {0, 3, 1, 0},
  };
  for (std::size_t q = 0; q < a.n_qubits(); ++q) {
    const P pa = a.get(q), pb = b.get(q);
    phase = (phase + kPhase[int(pa)][int(pb)]) % 4;
    r.set(q, P(int(pa) ^ int(pb)));
  }
  return {r, phase};
}

}  // namespace q2::pauli
