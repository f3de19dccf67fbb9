#include "pauli/jordan_wigner.hpp"

#include <algorithm>
#include <cmath>

namespace q2::pauli {

void FermionOperator::add_term(std::vector<Ladder> ops, cplx coeff) {
  for (const auto& l : ops)
    require(l.orbital < n_, "FermionOperator: orbital out of range");
  terms_.emplace_back(std::move(ops), coeff);
}

FermionOperator& FermionOperator::operator+=(const FermionOperator& o) {
  require(n_ == o.n_, "FermionOperator+=: mode count mismatch");
  terms_.insert(terms_.end(), o.terms_.begin(), o.terms_.end());
  return *this;
}

FermionOperator& FermionOperator::operator*=(cplx s) {
  for (auto& [ops, c] : terms_) c *= s;
  return *this;
}

FermionOperator FermionOperator::adjoint() const {
  FermionOperator r(n_);
  for (const auto& [ops, c] : terms_) {
    std::vector<Ladder> rev(ops.rbegin(), ops.rend());
    for (auto& l : rev) l.dagger = !l.dagger;
    r.terms_.emplace_back(std::move(rev), std::conj(c));
  }
  return r;
}

namespace {

// a_p = Z_0 ... Z_{p-1} (X_p + i Y_p) / 2;  a_p^dagger uses (X_p - i Y_p) / 2.
QubitOperator jw_ladder(std::size_t n, std::size_t p, bool dagger) {
  PauliString with_x(n), with_y(n);
  for (std::size_t q = 0; q < p; ++q) {
    with_x.set(q, P::Z);
    with_y.set(q, P::Z);
  }
  with_x.set(p, P::X);
  with_y.set(p, P::Y);
  QubitOperator op(n);
  op.add(with_x, 0.5);
  op.add(with_y, dagger ? cplx(0, -0.5) : cplx(0, 0.5));
  return op;
}

}  // namespace

QubitOperator jw_annihilation(std::size_t n_qubits, std::size_t p) {
  require(p < n_qubits, "jw_annihilation: orbital out of range");
  return jw_ladder(n_qubits, p, false);
}

QubitOperator jw_creation(std::size_t n_qubits, std::size_t p) {
  require(p < n_qubits, "jw_creation: orbital out of range");
  return jw_ladder(n_qubits, p, true);
}

QubitOperator jw_number(std::size_t n_qubits, std::size_t p) {
  require(p < n_qubits, "jw_number: orbital out of range");
  QubitOperator op = QubitOperator::identity(n_qubits, 0.5);
  PauliString z(n_qubits);
  z.set(p, P::Z);
  op.add(z, -0.5);
  return op;
}

JordanWignerAccumulator::JordanWignerAccumulator(std::size_t n_qubits)
    : n_(n_qubits), words_((n_qubits + 63) / 64), probe_(2 * words_) {}

void JordanWignerAccumulator::add(std::span<const Ladder> ops, cplx coeff) {
  const std::size_t w = words_, k = ops.size();
  require(k <= kMaxLadders, "JordanWignerAccumulator: too many ladders");
  const std::size_t strings = std::size_t(1) << k;
  std::uint64_t* x = probe_.data();  // the product's X mask
  std::fill(x, x + w, 0);
  z_.assign(strings * w, 0);
  phase_.assign(strings, 0);
  class_.assign(strings, 0);
  // After j ladders, strings [0, 2^j) hold the running product's Z masks and
  // i-exponents (in X·Z form); ladder j doubles them, X_p into s and Y_p
  // into s + 2^j. Two strings coincide exactly when their Y choices have
  // the same parity on every orbital, so a Y choice flips the class bit of
  // the first ladder on its orbital.
  std::size_t count = 1;
  for (std::size_t j = 0; j < k; ++j) {
    const Ladder& l = ops[j];
    require(l.orbital < n_, "JordanWignerAccumulator: orbital out of range");
    std::size_t first = 0;
    while (ops[first].orbital != l.orbital) ++first;
    const std::size_t pw = l.orbital / 64;
    const std::uint64_t pb = std::uint64_t(1) << (l.orbital % 64);
    x[pw] ^= pb;
    for (std::size_t s = 0; s < count; ++s) {
      std::uint64_t* z = &z_[s * w];
      std::uint64_t* zy = &z_[(s + count) * w];
      // X_p moves left past the Z_p already in the product.
      const int e = phase_[s] + ((z[pw] & pb) ? 2 : 0);
      for (std::size_t i = 0; i < pw; ++i) z[i] = ~z[i];  // Z on qubits < p
      z[pw] ^= pb - 1;
      std::copy(z, z + w, zy);
      zy[pw] ^= pb;
      phase_[s] = e;
      // Y_p = i·X_p·Z_p times the image's ±i/2: -1 for a_p, +1 for a_p^†.
      phase_[s + count] = e + (l.dagger ? 0 : 2);
      class_[s + count] = class_[s] ^ (std::size_t(1) << first);
    }
    count *= 2;
  }

  // Back to X/Y/Z letters: X^x Z^z = i^-|x∧z| P(x, z). Coincident strings
  // merge into integer counts of the real and imaginary units.
  re_.assign(strings, 0);
  im_.assign(strings, 0);
  for (std::size_t s = 0; s < strings; ++s) {
    int e = phase_[s];
    for (std::size_t i = 0; i < w; ++i)
      e -= __builtin_popcountll(x[i] & z_[s * w + i]);
    switch (e & 3) {
      case 0: ++re_[class_[s]]; break;
      case 1: ++im_[class_[s]]; break;
      case 2: --re_[class_[s]]; break;
      default: --im_[class_[s]]; break;
    }
  }

  // Each class is added once, at its first string; its counts are cleared
  // so the later strings of the class add nothing.
  const double scale = std::ldexp(1.0, -int(k));
  for (std::size_t s = 0; s < strings; ++s) {
    const std::size_t c = class_[s];
    if (re_[c] == 0 && im_[c] == 0) continue;
    const cplx value = coeff * cplx(re_[c] * scale, im_[c] * scale);
    re_[c] = im_[c] = 0;
    if (k > 0 && std::abs(value) <= 1e-14) continue;
    std::copy(&z_[s * w], &z_[s * w] + w, x + w);
    accumulate(probe_.data(), value);
  }
}

void JordanWignerAccumulator::accumulate(const std::uint64_t* key,
                                         cplx value) {
  const std::size_t kw = 2 * words_;
  if (2 * (sum_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot(key) & mask;; i = (i + 1) & mask) {
    if (slots_[i] == 0) {
      slots_[i] = std::uint32_t(sum_.size() + 1);
      keys_.insert(keys_.end(), key, key + kw);
      sum_.push_back(value);
      return;
    }
    const std::size_t e = slots_[i] - 1;
    if (std::equal(key, key + kw, &keys_[e * kw])) {
      sum_[e] += value;
      return;
    }
  }
}

void JordanWignerAccumulator::grow() {
  require(sum_.size() < 0x7fffffffu, "JordanWignerAccumulator: too many terms");
  slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
  const std::size_t mask = slots_.size() - 1, kw = 2 * words_;
  for (std::size_t e = 0; e < sum_.size(); ++e) {
    std::size_t i = slot(&keys_[e * kw]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = std::uint32_t(e + 1);
  }
}

std::size_t JordanWignerAccumulator::slot(const std::uint64_t* key) const {
  const std::size_t h = PauliString::hash_masks(n_, key, key + words_);
  return h ^ (h >> 32);
}

QubitOperator JordanWignerAccumulator::take() {
  QubitOperator out(n_);
  PauliString p(n_);
  const std::size_t kw = 2 * words_;
  for (std::size_t e = 0; e < sum_.size(); ++e) {
    if (std::abs(sum_[e]) <= 1e-12) continue;  // QubitOperator::compress()
    p.assign_masks(&keys_[e * kw], &keys_[e * kw + words_]);
    out.add(p, sum_[e]);  // onto +0, so a zero part reads +0
  }
  keys_.clear();
  sum_.clear();
  slots_.clear();
  return out;
}

QubitOperator jordan_wigner(const FermionOperator& op) {
  JordanWignerAccumulator sum(op.n_modes());
  for (const auto& [ops, coeff] : op.terms()) sum.add(ops, coeff);
  return sum.take();
}

}  // namespace q2::pauli
