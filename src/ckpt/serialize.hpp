// Byte-exact binary serialization for the checkpoint layer. ByteWriter /
// ByteReader move fixed-width little-endian integers and raw IEEE-754 bit
// patterns (no decimal round trips), so every serialized double restores
// bit-for-bit — the foundation of the resume determinism contract. On top sit
// serializers for the live run-state types: the MPS simulator state and the
// optimizer state.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/mps.hpp"
#include "vqe/optimizer.hpp"

namespace q2::ckpt {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(std::uint32_t(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void c128(cplx z) {
    f64(z.real());
    f64(z.imag());
  }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void vec(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  void vec(const std::vector<cplx>& v) {
    u64(v.size());
    for (cplx z : v) c128(z);
  }
  void vec(const std::vector<std::size_t>& v) {
    u64(v.size());
    for (std::size_t x : v) u64(x);
  }
  void vec(const std::vector<std::vector<double>>& v) {
    u64(v.size());
    for (const auto& inner : v) vec(inner);
  }
  void vec(const std::vector<std::vector<cplx>>& v) {
    u64(v.size());
    for (const auto& inner : v) vec(inner);
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Throws q2::Error on any overrun, so a truncated section surfaces as a
/// hard deserialization failure instead of garbage state.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : p_(buf.data()), n_(buf.size()) {}
  ByteReader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  std::uint8_t u8() {
    need(1);
    return p_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p_[pos_++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return std::int32_t(u32()); }
  bool b() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  cplx c128() {
    const double re = f64();
    const double im = f64();
    return {re, im};
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<double> vec_f64() {
    const std::uint64_t n = checked_count(8);
    std::vector<double> v(n);
    for (auto& x : v) x = f64();
    return v;
  }
  std::vector<cplx> vec_c128() {
    const std::uint64_t n = checked_count(16);
    std::vector<cplx> v(n);
    for (auto& z : v) z = c128();
    return v;
  }
  std::vector<std::size_t> vec_u64() {
    const std::uint64_t n = checked_count(8);
    std::vector<std::size_t> v(n);
    for (auto& x : v) x = std::size_t(u64());
    return v;
  }
  std::vector<std::vector<double>> vec_vec_f64() {
    const std::uint64_t n = u64();
    std::vector<std::vector<double>> v(n);
    for (auto& inner : v) inner = vec_f64();
    return v;
  }
  std::vector<std::vector<cplx>> vec_vec_c128() {
    const std::uint64_t n = u64();
    std::vector<std::vector<cplx>> v(n);
    for (auto& inner : v) inner = vec_c128();
    return v;
  }

  std::size_t remaining() const { return n_ - pos_; }
  bool at_end() const { return pos_ == n_; }

 private:
  void need(std::uint64_t n) const {
    require(n <= n_ - pos_, "ckpt: truncated record");
  }
  // Reads an element count and bounds-checks it against the remaining bytes
  // before any allocation, so a corrupt length can't trigger a huge alloc.
  std::uint64_t checked_count(std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    require(n <= (n_ - pos_) / elem_bytes, "ckpt: truncated record");
    return n;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

// ---- Domain serializers ----------------------------------------------------
// Each pair round-trips its type exactly; readers validate internal
// consistency and throw q2::Error on malformed input.

void write_mps(ByteWriter& w, const sim::MpsState& s);
sim::MpsState read_mps(ByteReader& r);

void write_optimizer_state(ByteWriter& w, const vqe::OptimizerState& s);
vqe::OptimizerState read_optimizer_state(ByteReader& r);

}  // namespace q2::ckpt
