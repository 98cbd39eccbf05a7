// Unit tests for util::BitVec — the arithmetic substrate everything else
// trusts, so it is tested against native 64-bit arithmetic and by
// algebraic properties at wide widths.

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace vlsa {
namespace {

using util::BitVec;
using util::Rng;

TEST(BitVec, DefaultIsZeroWidth) {
  const BitVec v;
  EXPECT_EQ(v.width(), 0);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_zero());
}

TEST(BitVec, FromU64RoundTrip) {
  const BitVec v = BitVec::from_u64(64, 0xdeadbeefcafebabeULL);
  EXPECT_EQ(v.low_u64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(v.width(), 64);
}

TEST(BitVec, FromU64TruncatesToWidth) {
  const BitVec v = BitVec::from_u64(8, 0x1ff);
  EXPECT_EQ(v.low_u64(), 0xff);
}

TEST(BitVec, BinaryStringRoundTrip) {
  const BitVec v = BitVec::from_binary("10110");
  EXPECT_EQ(v.width(), 5);
  EXPECT_EQ(v.low_u64(), 0b10110u);
  EXPECT_EQ(v.to_binary(), "10110");
}

TEST(BitVec, FromBinaryRejectsBadChars) {
  EXPECT_THROW(BitVec::from_binary("10x"), std::invalid_argument);
}

TEST(BitVec, HexRoundTrip) {
  const BitVec v = BitVec::from_hex("Fe01");
  EXPECT_EQ(v.width(), 16);
  EXPECT_EQ(v.low_u64(), 0xfe01u);
  EXPECT_EQ(v.to_hex(), "fe01");
}

TEST(BitVec, FromHexRejectsBadChars) {
  EXPECT_THROW(BitVec::from_hex("1g"), std::invalid_argument);
}

TEST(BitVec, OnesHasAllBitsSet) {
  const BitVec v = BitVec::ones(70);
  EXPECT_EQ(v.popcount(), 70);
  EXPECT_EQ(v.longest_one_run(), 70);
}

TEST(BitVec, SetAndGetBitAcrossLimbBoundary) {
  BitVec v(130);
  v.set_bit(63, true);
  v.set_bit(64, true);
  v.set_bit(129, true);
  EXPECT_TRUE(v.bit(63));
  EXPECT_TRUE(v.bit(64));
  EXPECT_TRUE(v.bit(129));
  EXPECT_FALSE(v.bit(0));
  EXPECT_EQ(v.popcount(), 3);
  v.set_bit(64, false);
  EXPECT_FALSE(v.bit(64));
}

TEST(BitVec, BitAccessOutOfRangeThrows) {
  BitVec v(8);
  EXPECT_THROW(v.bit(8), std::out_of_range);
  EXPECT_THROW(v.bit(-1), std::out_of_range);
  EXPECT_THROW(v.set_bit(8, true), std::out_of_range);
}

TEST(BitVec, AdditionMatchesNativeAt64Bits) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.next_u64();
    const std::uint64_t y = rng.next_u64();
    const BitVec a = BitVec::from_u64(64, x);
    const BitVec b = BitVec::from_u64(64, y);
    EXPECT_EQ((a + b).low_u64(), x + y);
  }
}

TEST(BitVec, AdditionWrapsModuloWidth) {
  const BitVec a = BitVec::from_u64(8, 0xff);
  const BitVec b = BitVec::from_u64(8, 0x01);
  EXPECT_TRUE((a + b).is_zero());
}

TEST(BitVec, AddWithCarryReportsCarryOut) {
  const BitVec a = BitVec::from_u64(8, 0xff);
  const BitVec b = BitVec::from_u64(8, 0x01);
  const auto r = a.add_with_carry(b);
  EXPECT_TRUE(r.sum.is_zero());
  EXPECT_TRUE(r.carry_out);
  const auto r2 = a.add_with_carry(BitVec(8));
  EXPECT_FALSE(r2.carry_out);
}

TEST(BitVec, AddWithCarryAtNonLimbWidths) {
  // Width 100: carry out lives inside the top limb.
  const BitVec a = BitVec::ones(100);
  const BitVec one = BitVec::from_u64(100, 1);
  const auto r = a.add_with_carry(one);
  EXPECT_TRUE(r.sum.is_zero());
  EXPECT_TRUE(r.carry_out);
}

TEST(BitVec, AddIntoMatchesAddWithCarryInPlace) {
  Rng rng(11);
  for (const int width : {1, 63, 64, 65, 100, 1024}) {
    for (int i = 0; i < 50; ++i) {
      const BitVec a = i == 0 ? BitVec::ones(width) : rng.next_bits(width);
      const BitVec b = i == 0 ? BitVec::from_u64(width, 1)
                              : rng.next_bits(width);
      const bool carry_in = i % 2 == 1;
      const auto expect = a.add_with_carry(b, carry_in);
      BitVec out(width);
      EXPECT_EQ(a.add_into(b, out, carry_in), expect.carry_out);
      EXPECT_EQ(out, expect.sum);
      BitVec lhs = a;  // out aliases *this
      EXPECT_EQ(lhs.add_into(b, lhs, carry_in), expect.carry_out);
      EXPECT_EQ(lhs, expect.sum);
      BitVec rhs = b;  // out aliases rhs
      EXPECT_EQ(a.add_into(rhs, rhs, carry_in), expect.carry_out);
      EXPECT_EQ(rhs, expect.sum);
    }
  }
  BitVec narrow(63);
  BitVec sum(64);
  EXPECT_THROW(BitVec(64).add_into(narrow, sum), std::invalid_argument);
  EXPECT_THROW(BitVec(64).add_into(BitVec(64), narrow), std::invalid_argument);
}

TEST(BitVec, CarryInPropagates) {
  const BitVec a = BitVec::from_u64(16, 10);
  const BitVec b = BitVec::from_u64(16, 20);
  EXPECT_EQ(a.add_with_carry(b, true).sum.low_u64(), 31u);
}

TEST(BitVec, SubtractionMatchesNative) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.next_u64();
    const std::uint64_t y = rng.next_u64();
    const BitVec a = BitVec::from_u64(64, x);
    const BitVec b = BitVec::from_u64(64, y);
    EXPECT_EQ((a - b).low_u64(), x - y);
  }
}

TEST(BitVec, WideAdditionAssociativity) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const BitVec a = rng.next_bits(521);
    const BitVec b = rng.next_bits(521);
    const BitVec c = rng.next_bits(521);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST(BitVec, WideAdditionCommutativity) {
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const BitVec a = rng.next_bits(2048);
    const BitVec b = rng.next_bits(2048);
    EXPECT_EQ(a + b, b + a);
  }
}

TEST(BitVec, SubtractionInvertsAddition) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const BitVec a = rng.next_bits(333);
    const BitVec b = rng.next_bits(333);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST(BitVec, BitwiseOperatorsMatchNative) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t x = rng.next_u64();
    const std::uint64_t y = rng.next_u64();
    const BitVec a = BitVec::from_u64(64, x);
    const BitVec b = BitVec::from_u64(64, y);
    EXPECT_EQ((a & b).low_u64(), x & y);
    EXPECT_EQ((a | b).low_u64(), x | y);
    EXPECT_EQ((a ^ b).low_u64(), x ^ y);
    EXPECT_EQ((~a).low_u64(), ~x);
  }
}

TEST(BitVec, ComplementIsCanonical) {
  // ~0 at width 10 must not set bits above the width.
  const BitVec v = ~BitVec(10);
  EXPECT_EQ(v.popcount(), 10);
  EXPECT_EQ(v.low_u64(), 0x3ffu);
}

TEST(BitVec, WidthMismatchThrows) {
  const BitVec a(8);
  const BitVec b(9);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(a & b, std::invalid_argument);
}

TEST(BitVec, ShiftsMatchNative) {
  Rng rng(7);
  for (int shift : {0, 1, 7, 31, 63}) {
    const std::uint64_t x = rng.next_u64();
    const BitVec a = BitVec::from_u64(64, x);
    EXPECT_EQ(a.shl(shift).low_u64(), x << shift);
    EXPECT_EQ(a.shr(shift).low_u64(), x >> shift);
  }
}

TEST(BitVec, ShiftBeyondWidthYieldsZero) {
  const BitVec a = BitVec::ones(32);
  EXPECT_TRUE(a.shl(32).is_zero());
  EXPECT_TRUE(a.shr(32).is_zero());
}

TEST(BitVec, ResizeZeroExtendsAndTruncates) {
  const BitVec a = BitVec::from_u64(8, 0xab);
  EXPECT_EQ(a.resized(16).low_u64(), 0xabu);
  EXPECT_EQ(a.resized(4).low_u64(), 0xbu);
}

TEST(BitVec, LongestOneRun) {
  EXPECT_EQ(BitVec::from_binary("0").longest_one_run(), 0);
  EXPECT_EQ(BitVec::from_binary("1").longest_one_run(), 1);
  EXPECT_EQ(BitVec::from_binary("0110111011110").longest_one_run(), 4);
  // Run crossing the 64-bit limb boundary.
  BitVec v(128);
  for (int i = 60; i < 70; ++i) v.set_bit(i, true);
  EXPECT_EQ(v.longest_one_run(), 10);
}

TEST(BitVec, NegativeWidthThrows) {
  EXPECT_THROW(BitVec(-1), std::invalid_argument);
}

}  // namespace
}  // namespace vlsa
