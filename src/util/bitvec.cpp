#include "util/bitvec.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace vlsa::util {

BitVec::BitVec(int width) : width_(width), limbs_(limb_count(width), 0) {
  if (width < 0) throw std::invalid_argument("BitVec: negative width");
}

BitVec BitVec::from_u64(int width, std::uint64_t value) {
  BitVec v(width);
  if (width > 0) {
    v.limbs_[0] = value;
    v.canonicalize();
  }
  return v;
}

BitVec BitVec::from_binary(std::string_view bits) {
  BitVec v(static_cast<int>(bits.size()));
  for (int i = 0; i < v.width_; ++i) {
    const char c = bits[bits.size() - 1 - static_cast<std::size_t>(i)];
    if (c == '1') {
      v.set_bit(i, true);
    } else if (c != '0') {
      throw std::invalid_argument("BitVec::from_binary: bad character");
    }
  }
  return v;
}

BitVec BitVec::from_hex(std::string_view digits) {
  BitVec v(static_cast<int>(digits.size()) * 4);
  for (std::size_t pos = 0; pos < digits.size(); ++pos) {
    const char c = digits[digits.size() - 1 - pos];
    int nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      nibble = c - 'A' + 10;
    } else {
      throw std::invalid_argument("BitVec::from_hex: bad character");
    }
    for (int b = 0; b < 4; ++b) {
      v.set_bit(static_cast<int>(pos) * 4 + b, (nibble >> b) & 1);
    }
  }
  return v;
}

BitVec BitVec::ones(int width) {
  BitVec v(width);
  for (auto& limb : v.limbs_) limb = ~std::uint64_t{0};
  v.canonicalize();
  return v;
}

bool BitVec::bit(int i) const {
  if (i < 0 || i >= width_) throw std::out_of_range("BitVec::bit");
  return (limbs_[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1;
}

void BitVec::set_bit(int i, bool value) {
  if (i < 0 || i >= width_) throw std::out_of_range("BitVec::set_bit");
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  auto& limb = limbs_[static_cast<std::size_t>(i) / 64];
  limb = value ? (limb | mask) : (limb & ~mask);
}

std::uint64_t BitVec::low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

int BitVec::popcount() const {
  int n = 0;
  for (auto limb : limbs_) n += std::popcount(limb);
  return n;
}

int BitVec::longest_one_run() const {
  int best = 0;
  int run = 0;
  for (int i = 0; i < width_; ++i) {
    if (bit(i)) {
      run += 1;
      if (run > best) best = run;
    } else {
      run = 0;
    }
  }
  return best;
}

bool BitVec::is_zero() const {
  for (auto limb : limbs_) {
    if (limb != 0) return false;
  }
  return true;
}

BitVec BitVec::operator~() const {
  BitVec r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = ~limbs_[i];
  r.canonicalize();
  return r;
}

namespace {
void require_same_width(const BitVec& a, const BitVec& b) {
  if (a.width() != b.width()) {
    throw std::invalid_argument("BitVec: width mismatch");
  }
}
}  // namespace

BitVec BitVec::operator&(const BitVec& rhs) const {
  require_same_width(*this, rhs);
  BitVec r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i] = limbs_[i] & rhs.limbs_[i];
  }
  return r;
}

BitVec BitVec::operator|(const BitVec& rhs) const {
  require_same_width(*this, rhs);
  BitVec r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i] = limbs_[i] | rhs.limbs_[i];
  }
  return r;
}

BitVec BitVec::operator^(const BitVec& rhs) const {
  require_same_width(*this, rhs);
  BitVec r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i] = limbs_[i] ^ rhs.limbs_[i];
  }
  return r;
}

bool BitVec::add_into(const BitVec& rhs, BitVec& out, bool carry_in) const {
  require_same_width(*this, rhs);
  require_same_width(*this, out);
  unsigned __int128 carry = carry_in ? 1 : 0;
  // Limb i of both operands is read before limb i of `out` is written,
  // so `out` may be *this or rhs.
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const unsigned __int128 s =
        static_cast<unsigned __int128>(limbs_[i]) + rhs.limbs_[i] + carry;
    out.limbs_[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  bool carry_out = carry != 0;
  // The carry out of bit width-1 may live inside the top limb when the
  // width is not a multiple of 64.
  if (width_ % 64 != 0 && !limbs_.empty()) {
    carry_out = (out.limbs_.back() >> (width_ % 64)) & 1;
  }
  out.canonicalize();
  return carry_out;
}

BitVec::SumWithCarry BitVec::add_with_carry(const BitVec& rhs,
                                            bool carry_in) const {
  BitVec sum(width_);
  const bool carry_out = add_into(rhs, sum, carry_in);
  return {std::move(sum), carry_out};
}

BitVec BitVec::operator+(const BitVec& rhs) const {
  return add_with_carry(rhs).sum;
}

BitVec BitVec::operator-(const BitVec& rhs) const {
  // a - b = a + ~b + 1 (mod 2^width).
  return add_with_carry(~rhs, /*carry_in=*/true).sum;
}

BitVec BitVec::shl(int shift) const {
  if (shift < 0) throw std::invalid_argument("BitVec::shl: negative shift");
  BitVec r(width_);
  for (int i = width_ - 1; i >= shift; --i) r.set_bit(i, bit(i - shift));
  return r;
}

BitVec BitVec::shr(int shift) const {
  if (shift < 0) throw std::invalid_argument("BitVec::shr: negative shift");
  BitVec r(width_);
  for (int i = 0; i + shift < width_; ++i) r.set_bit(i, bit(i + shift));
  return r;
}

BitVec BitVec::resized(int new_width) const {
  BitVec r(new_width);
  const int n = std::min(new_width, width_);
  for (int i = 0; i < n; ++i) r.set_bit(i, bit(i));
  return r;
}

std::string BitVec::to_binary() const {
  std::string s(static_cast<std::size_t>(width_), '0');
  for (int i = 0; i < width_; ++i) {
    if (bit(i)) s[static_cast<std::size_t>(width_ - 1 - i)] = '1';
  }
  return s;
}

std::string BitVec::to_hex() const {
  const int digits = (width_ + 3) / 4;
  std::string s(static_cast<std::size_t>(digits), '0');
  static constexpr char kHex[] = "0123456789abcdef";
  for (int d = 0; d < digits; ++d) {
    int nibble = 0;
    for (int b = 0; b < 4; ++b) {
      const int i = d * 4 + b;
      if (i < width_ && bit(i)) nibble |= 1 << b;
    }
    s[static_cast<std::size_t>(digits - 1 - d)] = kHex[nibble];
  }
  return s;
}

void BitVec::canonicalize() {
  if (width_ % 64 != 0 && !limbs_.empty()) {
    limbs_.back() &= (~std::uint64_t{0}) >> (64 - width_ % 64);
  }
}

}  // namespace vlsa::util
