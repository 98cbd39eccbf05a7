#pragma once
// BitVec — fixed-width unsigned bit vector over 64-bit limbs.
//
// This is the arithmetic substrate for the whole repository: operand
// widths in the paper range from 64 to 2048 bits, so native integers are
// not enough.  BitVec keeps a canonical representation (bits above
// `width()` are always zero), which lets equality and hashing be plain
// limb comparisons.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vlsa::util {

/// Fixed-width unsigned integer / bit vector.  All operations require both
/// operands to have the same width unless documented otherwise; arithmetic
/// wraps modulo 2^width.
class BitVec {
 public:
  /// Zero-valued vector of the given width (width 0 is allowed and empty).
  explicit BitVec(int width = 0);

  /// Vector of `width` bits holding `value` mod 2^width.
  static BitVec from_u64(int width, std::uint64_t value);

  /// Parse a binary string, most significant bit first ("0101...").
  /// The width is the string length.  Throws std::invalid_argument on any
  /// character other than '0'/'1'.
  static BitVec from_binary(std::string_view bits);

  /// Parse a hexadecimal string (no prefix), most significant digit first.
  /// The width is 4 * (number of digits).
  static BitVec from_hex(std::string_view digits);

  /// All-ones vector of the given width.
  static BitVec ones(int width);

  int width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// Bit accessors; `i` must lie in [0, width).
  bool bit(int i) const;
  void set_bit(int i, bool value);

  /// Value of the low 64 bits (the whole value when width <= 64).
  std::uint64_t low_u64() const;

  /// Raw limb access (little-endian limb order; top limb is masked).
  const std::vector<std::uint64_t>& limbs() const { return limbs_; }
  std::vector<std::uint64_t>& limbs() { return limbs_; }

  /// Number of 1 bits.
  int popcount() const;

  /// Length of the longest run of consecutive 1 bits (0 for the zero vector).
  int longest_one_run() const;

  /// True iff every bit is zero.
  bool is_zero() const;

  // ----- bitwise operators (same width required) -----
  BitVec operator~() const;
  BitVec operator&(const BitVec& rhs) const;
  BitVec operator|(const BitVec& rhs) const;
  BitVec operator^(const BitVec& rhs) const;

  // ----- arithmetic (mod 2^width) -----
  BitVec operator+(const BitVec& rhs) const;
  BitVec operator-(const BitVec& rhs) const;

  /// Addition that also reports the carry out of the most significant bit.
  struct SumWithCarry;  // defined after the class (holds a BitVec)
  SumWithCarry add_with_carry(const BitVec& rhs, bool carry_in = false) const;

  /// out = *this + rhs + carry_in (mod 2^width) without allocating;
  /// returns the carry out of the most significant bit.  `out` must have
  /// the same width and may be *this or rhs (an in-place add).
  bool add_into(const BitVec& rhs, BitVec& out, bool carry_in = false) const;

  /// Logical shifts (shift >= 0; shifting by >= width yields zero).
  BitVec shl(int shift) const;
  BitVec shr(int shift) const;

  /// Resize to `new_width`, zero-extending or truncating at the top.
  BitVec resized(int new_width) const;

  bool operator==(const BitVec& rhs) const = default;

  /// Most-significant-bit-first binary string of exactly `width()` chars.
  std::string to_binary() const;

  /// Hex string, most significant digit first, ceil(width/4) digits.
  std::string to_hex() const;

 private:
  void canonicalize();
  static int limb_count(int width) { return (width + 63) / 64; }

  int width_ = 0;
  std::vector<std::uint64_t> limbs_;
};

struct BitVec::SumWithCarry {
  BitVec sum;
  bool carry_out = false;
};

}  // namespace vlsa::util
