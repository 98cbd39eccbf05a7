// Differential property tests for the bit-sliced batch engine: every
// output lane must match the scalar specification in core/aca.hpp
// bit-for-bit.  This equivalence is what licenses the batch Monte-Carlo
// driver as a *reproduction* instrument rather than a new model — the
// paper's statistics are only as trustworthy as this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "sim/batch_engine.hpp"
#include "sim/row_kernel.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace vlsa {
namespace {

using core::aca_add;
using core::aca_flag;
using core::aca_is_exact;
using core::aca_speculative_carries;
using core::aca_sub;
using core::longest_propagate_chain;
using sim::Isa;
using sim::WideBatch;
using sim::WideResult;
using util::BitVec;
using util::Rng;

// The differential grid of the issue: every width crossed with windows
// {1, 4, log2 n, n}.  333 is deliberately not a multiple of 64 and 8
// exercises windows wider than the operand.
const int kWidths[] = {8, 16, 64, 256, 333};

std::vector<int> windows_for(int n) {
  const int log2n = std::max(1, static_cast<int>(std::lround(std::log2(n))));
  std::vector<int> ks{1, 4, log2n, n};
  // Dedup while keeping order (width 8 yields {1, 4, 3, 8}).
  std::vector<int> out;
  for (int k : ks) {
    bool seen = false;
    for (int o : out) seen = seen || o == k;
    if (!seen) out.push_back(k);
  }
  return out;
}

/// Every tier this build + machine can actually run.  Scalar is always
/// first: the wide tiers are compared against its outputs.
std::vector<Isa> testable_isas() {
  std::vector<Isa> out{Isa::Scalar};
  for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
    if (sim::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Lane mask for the wide layout: bit (j % 64) of word (j / 64).
std::vector<std::uint64_t> random_lane_mask(Rng& rng, int lanes) {
  std::vector<std::uint64_t> mask(static_cast<std::size_t>(lanes) / 64);
  for (auto& w : mask) w = rng.next_u64();
  return mask;
}

/// Lane j of a lane mask; an empty mask (no carry in) reads 0.
bool mask_lane(const std::vector<std::uint64_t>& mask, int lane) {
  return !mask.empty() &&
         ((mask[static_cast<std::size_t>(lane / 64)] >> (lane % 64)) & 1) !=
             0;
}

/// The speculative carry out of every bit, re-derived from the outputs
/// the engine returns: sum_spec[i+1] = p[i+1] ^ c_spec[i], and the last
/// carry is carry_out_spec.
BitVec derived_spec_carries(const BitVec& a, const BitVec& b,
                            const BitVec& sum_spec, bool carry_out_spec) {
  BitVec carries = (sum_spec ^ a ^ b).shr(1);
  carries.set_bit(a.width() - 1, carry_out_spec);
  return carries;
}

// Check one output lane of `got` against the scalar model for the same
// operands — every signal the engine returns, plus every internal
// speculative carry derived from them.  `cin` is the lane mask that
// was fed to the engine (empty = no carry in).
void expect_wide_lane_matches_scalar(const WideBatch& ops,
                                     const std::vector<std::uint64_t>& cin,
                                     int k, const WideResult& got, int lane,
                                     const char* label) {
  const int n = ops.width;
  const int words = ops.words();
  const BitVec a = sim::wide_lane_value(ops.a, n, words, lane);
  const BitVec b = sim::wide_lane_value(ops.b, n, words, lane);
  const bool lane_cin = mask_lane(cin, lane);
  const auto scalar = aca_add(a, b, k, lane_cin);
  const auto exact = a.add_with_carry(b, lane_cin);
  const BitVec sum_spec = sim::wide_lane_value(got.sum_spec, n, words, lane);
  ASSERT_EQ(sum_spec, scalar.sum)
      << label << " spec sum lane " << lane << " n=" << n << " k=" << k;
  ASSERT_EQ(derived_spec_carries(a, b, sum_spec,
                                 mask_lane(got.carry_out_spec, lane)),
            aca_speculative_carries(a, b, k, lane_cin))
      << label << " carries lane " << lane << " n=" << n << " k=" << k;
  ASSERT_EQ(mask_lane(got.carry_out_spec, lane), scalar.carry_out)
      << label << " spec cout lane " << lane << " n=" << n << " k=" << k;
  ASSERT_EQ(mask_lane(got.carry_out_exact, lane), exact.carry_out)
      << label << " exact cout lane " << lane << " n=" << n << " k=" << k;
  ASSERT_EQ(got.flagged_lane(lane), aca_flag(a, b, k))
      << label << " ER lane " << lane << " n=" << n << " k=" << k;
  // aca_is_exact ignores carry-in/out by definition; the engine's
  // `wrong` also compares the carry out, so check against the full
  // scalar comparison and, when cin == 0, against aca_is_exact too.
  const bool scalar_wrong =
      scalar.sum != exact.sum || scalar.carry_out != exact.carry_out;
  ASSERT_EQ(got.wrong_lane(lane), scalar_wrong)
      << label << " wrong lane " << lane << " n=" << n << " k=" << k;
  if (!lane_cin && !scalar_wrong) {
    ASSERT_TRUE(aca_is_exact(a, b, k))
        << label << " lane " << lane << " n=" << n << " k=" << k;
  }
}

/// expect_wide_lane_matches_scalar over every lane, stopping at the
/// first mismatch.
void expect_lanes_match_scalar(const WideBatch& ops,
                               const std::vector<std::uint64_t>& cin, int k,
                               const WideResult& got, const char* label) {
  for (int lane = 0; lane < ops.lanes; ++lane) {
    expect_wide_lane_matches_scalar(ops, cin, k, got, lane, label);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// 64-lane batches: one word per bit position, which every ISA tier
// evaluates on the scalar kernel (sim::resolved_isa).
// ---------------------------------------------------------------------------

TEST(BatchEngineDifferential, RandomBatchesAcrossWidthAndWindowGrid) {
  // ~10k random batches spread over the grid (more on the cheap widths),
  // each batch checked on all 64 lanes against the scalar model —
  // including random carry-in lane masks every fourth batch.
  Rng rng(0xba7c4);
  for (int n : kWidths) {
    for (int k : windows_for(n)) {
      const int batches = n <= 64 ? 700 : 150;
      WideBatch ops(n, 64);
      for (int t = 0; t < batches; ++t) {
        sim::fill_uniform(rng, ops);
        const auto cin = (t % 4 == 0) ? random_lane_mask(rng, 64)
                                      : std::vector<std::uint64_t>{};
        const auto got =
            sim::wide_aca_add(ops, k, cin.empty() ? nullptr : cin.data());
        expect_lanes_match_scalar(ops, cin, k, got, "random");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BatchEngineDifferential, ExhaustiveWidth8Agreement) {
  // All 2^16 operand pairs at width 8, both carry-in values, windows
  // {1, 3, 4, 8} — the batch engine and the scalar model must be
  // indistinguishable on the entire input space.
  for (int k : {1, 3, 4, 8}) {
    for (int cin_all : {0, 1}) {
      const std::vector<std::uint64_t> mask(
          1, cin_all ? ~std::uint64_t{0} : 0);
      std::vector<std::pair<BitVec, BitVec>> pairs;
      pairs.reserve(64);
      for (int av = 0; av < 256; ++av) {
        for (int bv = 0; bv < 256; ++bv) {
          pairs.emplace_back(BitVec::from_u64(8, av), BitVec::from_u64(8, bv));
          if (pairs.size() == 64) {
            const auto ops = sim::wide_transpose_batch(pairs, 8, 64);
            expect_lanes_match_scalar(ops, mask, k,
                                      sim::wide_aca_add(ops, k, mask.data()),
                                      "exhaustive");
            if (HasFatalFailure()) return;
            pairs.clear();
          }
        }
      }
      ASSERT_TRUE(pairs.empty());  // 65536 pairs = exactly 1024 batches
    }
  }
}

TEST(BatchEngineDifferential, SubtractionPathMatchesScalar) {
  // a - b is a + ~b + 1 per lane: every output must equal the addition
  // model on (a, ~b) with carry in, and the sum and flag must equal the
  // scalar aca_sub.
  Rng rng(0x5ab);
  const std::vector<std::uint64_t> ones(1, ~std::uint64_t{0});
  for (int n : kWidths) {
    for (int k : windows_for(n)) {
      WideBatch ops(n, 64);
      for (int t = 0; t < 40; ++t) {
        sim::fill_uniform(rng, ops);
        const auto got = sim::wide_aca_sub(ops, k);
        WideBatch negated = ops;
        for (auto& word : negated.b) word = ~word;
        expect_lanes_match_scalar(negated, ones, k, got, "sub");
        if (HasFatalFailure()) return;
        for (int lane = 0; lane < 64; ++lane) {
          const BitVec a = sim::wide_lane_value(ops.a, n, 1, lane);
          const BitVec b = sim::wide_lane_value(ops.b, n, 1, lane);
          const auto scalar = aca_sub(a, b, k);
          ASSERT_EQ(sim::wide_lane_value(got.sum_spec, n, 1, lane),
                    scalar.sum)
              << "sub lane " << lane << " n=" << n << " k=" << k;
          ASSERT_EQ(got.flagged_lane(lane), scalar.flagged);
        }
      }
    }
  }
}

TEST(BatchEngine, SoundnessWrongLanesAreAlwaysFlagged) {
  // The paper's safety property, ER = 0 => exact, holds per lane: the
  // wrong mask must be a subset of the flag mask.  Complementary-style
  // operands make wrong lanes actually occur.
  Rng rng(0x50);
  for (int n : {64, 256}) {
    WideBatch ops(n, 64);
    for (int t = 0; t < 200; ++t) {
      sim::fill_uniform(rng, ops);
      if (t % 2 == 0) {
        // b ~= ~a with a few flipped words: long propagate chains.
        for (int i = 0; i < n; ++i) ops.b[i] = ~ops.a[i];
        ops.b[rng.next_below(n)] = rng.next_u64();
      }
      for (int k : {2, 4, 8}) {
        const auto got = sim::wide_aca_add(ops, k);
        ASSERT_EQ(got.wrong[0] & ~got.flagged[0], 0u)
            << "unflagged wrong lane at n=" << n << " k=" << k;
      }
    }
  }
}

TEST(BatchEngine, LongestRunsMatchScalarChainLength) {
  Rng rng(0x10e);
  for (int n : {8, 64, 333}) {
    WideBatch ops(n, 64);
    for (int t = 0; t < 100; ++t) {
      sim::fill_uniform(rng, ops);
      const auto runs = sim::wide_longest_runs(ops);
      for (int lane = 0; lane < 64; ++lane) {
        const BitVec a = sim::wide_lane_value(ops.a, n, 1, lane);
        const BitVec b = sim::wide_lane_value(ops.b, n, 1, lane);
        ASSERT_EQ(runs[static_cast<std::size_t>(lane)],
                  longest_propagate_chain(a, b))
            << "lane " << lane << " n=" << n;
      }
    }
  }
}

TEST(BatchEngine, TransposeRoundTrip) {
  Rng rng(0x77);
  const int n = 96;
  std::vector<std::pair<BitVec, BitVec>> pairs;
  for (int i = 0; i < 37; ++i) {  // deliberately a partial batch
    pairs.emplace_back(rng.next_bits(n), rng.next_bits(n));
  }
  const auto ops = sim::wide_transpose_batch(pairs, n, 64);
  for (int lane = 0; lane < 37; ++lane) {
    EXPECT_EQ(sim::wide_lane_value(ops.a, n, 1, lane), pairs[lane].first);
    EXPECT_EQ(sim::wide_lane_value(ops.b, n, 1, lane), pairs[lane].second);
  }
  for (int lane = 37; lane < 64; ++lane) {
    EXPECT_TRUE(sim::wide_lane_value(ops.a, n, 1, lane).is_zero());
    EXPECT_TRUE(sim::wide_lane_value(ops.b, n, 1, lane).is_zero());
  }
}

TEST(BatchEngine, RejectsBadArguments) {
  // Window, width and lane-count errors are shared with the wide suite
  // (BatchEngineWide.RejectsBadArguments); these are the slice-shape
  // and lane-index errors.
  WideBatch corrupt(8, 64);
  corrupt.a.pop_back();
  EXPECT_THROW(sim::wide_aca_add(corrupt, 4), std::invalid_argument);
  EXPECT_THROW(sim::wide_lane_value(corrupt.b, 8, 1, 64),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_lane_value(corrupt.a, 8, 1, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Wide (SIMD-dispatched) engine — every kernel tier the machine supports
// is differentially pinned to the scalar core model and required to be
// bit-identical to the scalar tier.  Under VLSA_FORCE_ISA=<tier> the
// whole suite additionally reruns with that tier as the default, so CI
// exercises the scalar fallback on any hardware.
// ---------------------------------------------------------------------------

TEST(BatchEngineWide, EveryTierMatchesScalarModelOnRandomOperands) {
  Rng rng(0x51d0);
  for (Isa isa : testable_isas()) {
    for (int lanes : {64, 128, 256, 512}) {
      // A tier only runs when its group divides the batch; smaller
      // batches silently resolve to a narrower tier (checked in
      // BatchEngineIsa.ResolvedIsaFallsBackToDividingTier).
      for (int n : {8, 64, 333}) {
        for (int k : windows_for(n)) {
          WideBatch ops(n, lanes);
          for (int t = 0; t < 6; ++t) {
            sim::fill_uniform(rng, ops);
            const auto cin = (t % 2 == 0)
                                 ? random_lane_mask(rng, lanes)
                                 : std::vector<std::uint64_t>{};
            const auto got = sim::wide_aca_add(
                ops, k, cin.empty() ? nullptr : cin.data(), isa);
            expect_lanes_match_scalar(ops, cin, k, got, sim::isa_name(isa));
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(BatchEngineWide, EveryTierMatchesScalarOnAllPropagateOperands) {
  // Adversarial case: b = ~a makes every bit position a propagate, so
  // the chain spans the whole operand — the worst case for speculation
  // and the exact pattern where window seeding bugs would show.  With
  // carry-in set the speculative sum is wrong on every lane; without it
  // the speculative sum happens to be right but the flag still fires.
  const int n = 256;
  for (Isa isa : testable_isas()) {
    for (int lanes : {64, 256, 512}) {
      Rng rng(0xadf);
      WideBatch ops(n, lanes);
      sim::fill_uniform(rng, ops);
      for (std::size_t i = 0; i < ops.b.size(); ++i) ops.b[i] = ~ops.a[i];
      for (int k : {4, n / 2, n}) {
        std::vector<std::uint64_t> ones(
            static_cast<std::size_t>(lanes) / 64, ~std::uint64_t{0});
        const auto got = sim::wide_aca_add(ops, k, ones.data(), isa);
        for (int lane = 0; lane < lanes; ++lane) {
          expect_wide_lane_matches_scalar(ops, ones, k, got, lane,
                                          sim::isa_name(isa));
          ASSERT_TRUE(got.flagged_lane(lane));  // chain = n >= k always
          // With carry-in, the length-k window seeds 0 where the exact
          // chain carries 1 — at minimum the carry-out mispredicts.
          ASSERT_TRUE(got.wrong_lane(lane));
        }
        const auto no_cin = sim::wide_aca_add(ops, k, nullptr, isa);
        for (int lane = 0; lane < lanes; ++lane) {
          ASSERT_TRUE(no_cin.flagged_lane(lane));
          // All-propagate with cin=0: every window ripples to 0 carries,
          // which matches the exact chain — flagged but not wrong.
          ASSERT_FALSE(no_cin.wrong_lane(lane));
        }
      }
    }
  }
}

TEST(BatchEngineWide, EdgeWindowsMatchScalarOnEveryTier) {
  // Windows the grid above never reaches: k = n-1, k = n+1 and k far
  // beyond n (no full window exists, so the run mask R_k is empty), and
  // the shipped service configuration, width 1024 with k = 23, whose
  // doubling steps are 1, 2, 4, 8, 7 — the last is not a power of two.
  // Each runs through addition with and without a carry-in mask and
  // subtraction, then on all-propagate operands, where every window
  // below bit k-1 is clamped at bit 0 and must return the carry-in.
  struct Edge {
    int n, k;
  };
  const Edge edges[] = {{1024, 23}, {100, 99}, {100, 101}, {64, 1000},
                        {333, 332}};
  Rng rng(0xed6e);
  for (Isa isa : testable_isas()) {
    const char* label = sim::isa_name(isa);
    for (int lanes : {64, 256, 512}) {
      const std::vector<std::uint64_t> none;
      const std::vector<std::uint64_t> ones(
          static_cast<std::size_t>(lanes) / 64, ~std::uint64_t{0});
      for (const Edge& e : edges) {
        const int k = e.k;
        WideBatch ops(e.n, lanes);
        sim::fill_uniform(rng, ops);
        const auto cin = random_lane_mask(rng, lanes);
        expect_lanes_match_scalar(
            ops, none, k, sim::wide_aca_add(ops, k, nullptr, isa), label);
        expect_lanes_match_scalar(
            ops, cin, k, sim::wide_aca_add(ops, k, cin.data(), isa), label);
        WideBatch negated = ops;
        for (auto& word : negated.b) word = ~word;
        expect_lanes_match_scalar(negated, ones, k,
                                  sim::wide_aca_sub(ops, k, isa), label);
        if (HasFatalFailure()) return;

        WideBatch all_p = ops;
        for (std::size_t i = 0; i < all_p.b.size(); ++i) {
          all_p.b[i] = ~all_p.a[i];
        }
        for (const auto* mask : {&none, &ones, &cin}) {
          const auto got = sim::wide_aca_add(
              all_p, k, mask->empty() ? nullptr : mask->data(), isa);
          expect_lanes_match_scalar(all_p, *mask, k, got, label);
          if (HasFatalFailure()) return;
          for (int lane = 0; lane < lanes; ++lane) {
            const BitVec a = sim::wide_lane_value(all_p.a, e.n, ops.words(),
                                                  lane);
            const BitVec carries = derived_spec_carries(
                a, ~a,
                sim::wide_lane_value(got.sum_spec, e.n, ops.words(), lane),
                mask_lane(got.carry_out_spec, lane));
            const bool lane_cin = mask_lane(*mask, lane);
            for (int i = 0; i < e.n; ++i) {
              // Clamped windows carry the carry-in; full ones speculate 0.
              ASSERT_EQ(carries.bit(i), i < k - 1 && lane_cin)
                  << label << " lane " << lane << " bit " << i
                  << " n=" << e.n << " k=" << k;
            }
            ASSERT_EQ(got.flagged_lane(lane), k <= e.n) << label;
          }
        }
      }
    }
  }
}

TEST(BatchEngineWide, AllTiersProduceBitIdenticalOutputs) {
  // Stronger than per-lane agreement: the raw output vectors of every
  // supported tier must equal the scalar tier's word for word.
  Rng rng(0xb17);
  const auto isas = testable_isas();
  for (int lanes : {256, 512}) {
    for (int n : {64, 333}) {
      WideBatch ops(n, lanes);
      sim::fill_uniform(rng, ops);
      const auto cin = random_lane_mask(rng, lanes);
      const int k = 8;
      const auto ref = sim::wide_aca_add(ops, k, cin.data(), Isa::Scalar);
      for (Isa isa : isas) {
        const auto got = sim::wide_aca_add(ops, k, cin.data(), isa);
        EXPECT_EQ(got.sum_spec, ref.sum_spec) << sim::isa_name(isa);
        EXPECT_EQ(got.carry_out_spec, ref.carry_out_spec)
            << sim::isa_name(isa);
        EXPECT_EQ(got.carry_out_exact, ref.carry_out_exact)
            << sim::isa_name(isa);
        EXPECT_EQ(got.flagged, ref.flagged) << sim::isa_name(isa);
        EXPECT_EQ(got.wrong, ref.wrong) << sim::isa_name(isa);
        EXPECT_EQ(sim::wide_longest_runs(ops, isa),
                  sim::wide_longest_runs(ops, Isa::Scalar))
            << sim::isa_name(isa);
      }
    }
  }
}

TEST(BatchEngineWide, LongestRunsMatchScalarChainLength) {
  Rng rng(0x3a1);
  for (Isa isa : testable_isas()) {
    for (int lanes : {64, 512}) {
      for (int n : {8, 333}) {
        WideBatch ops(n, lanes);
        sim::fill_uniform(rng, ops);
        const auto runs = sim::wide_longest_runs(ops, isa);
        ASSERT_EQ(static_cast<int>(runs.size()), lanes);
        for (int lane = 0; lane < lanes; ++lane) {
          const BitVec a = sim::wide_lane_value(ops.a, n, ops.words(), lane);
          const BitVec b = sim::wide_lane_value(ops.b, n, ops.words(), lane);
          ASSERT_EQ(runs[lane], longest_propagate_chain(a, b))
              << sim::isa_name(isa) << " lane " << lane << " n=" << n;
        }
      }
    }
  }
}

TEST(BatchEngineWide, SubtractionPathMatchesScalar) {
  Rng rng(0x5b5);
  for (Isa isa : testable_isas()) {
    const int n = 64;
    const int k = 6;
    WideBatch ops(n, 512);
    sim::fill_uniform(rng, ops);
    const auto got = sim::wide_aca_sub(ops, k, isa);
    for (int lane = 0; lane < ops.lanes; ++lane) {
      const BitVec a = sim::wide_lane_value(ops.a, n, ops.words(), lane);
      const BitVec b = sim::wide_lane_value(ops.b, n, ops.words(), lane);
      const auto scalar = aca_sub(a, b, k);
      ASSERT_EQ(sim::wide_lane_value(got.sum_spec, n, ops.words(), lane),
                scalar.sum)
          << sim::isa_name(isa) << " lane " << lane;
      ASSERT_EQ(got.flagged_lane(lane), scalar.flagged)
          << sim::isa_name(isa) << " lane " << lane;
    }
  }
}

/// The documented wide layout, built bit by bit: bit i of lane j sits
/// at bit j % 64 of word `i * words + j / 64`.
std::vector<std::uint64_t> reference_slices(const std::vector<BitVec>& lanes_in,
                                            int width, int lanes) {
  const int words = lanes / 64;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(width) * words, 0);
  for (std::size_t j = 0; j < lanes_in.size(); ++j) {
    for (int i = 0; i < width; ++i) {
      if (lanes_in[j].bit(i)) {
        out[static_cast<std::size_t>(i) * words + j / 64] |=
            std::uint64_t{1} << (j % 64);
      }
    }
  }
  return out;
}

TEST(BatchEngineWide, TransposeRoundTripOnEveryTier) {
  // Pack and unpack must produce the documented layout and invert it on
  // every tier, for partial and full batches, at widths that end
  // inside, on and just past a limb.  Equality with a canonical BitVec
  // compares whole limbs, so it also proves the bits above the width of
  // every unpacked value are clear.
  Rng rng(0x7a2);
  for (Isa isa : testable_isas()) {
    for (int lanes : {64, 256, 512}) {
      const int words = lanes / 64;
      for (int n : {1, 63, 64, 65, 96, 1024}) {
        for (int used : {0, 1, 2, 9, 37, lanes - 27, lanes}) {
          SCOPED_TRACE(std::string(sim::isa_name(isa)) + " lanes " +
                       std::to_string(lanes) + " n " + std::to_string(n) +
                       " used " + std::to_string(used));
          std::vector<std::pair<BitVec, BitVec>> pairs;
          std::vector<BitVec> as, bs;
          for (int i = 0; i < used; ++i) {
            as.push_back(rng.next_bits(n));
            bs.push_back(rng.next_bits(n));
            pairs.emplace_back(as.back(), bs.back());
          }
          const auto ops = sim::wide_transpose_batch(pairs, n, lanes, isa);
          ASSERT_EQ(ops.a, reference_slices(as, n, lanes));
          ASSERT_EQ(ops.b, reference_slices(bs, n, lanes));
          for (const auto* side : {&as, &bs}) {
            const auto& sliced = side == &as ? ops.a : ops.b;
            const auto expect = [&](int lane) {
              return lane < used ? (*side)[lane] : BitVec(n);
            };
            const auto values = sim::wide_lane_values(sliced, n, lanes, isa);
            for (int lane = 0; lane < lanes; ++lane) {
              ASSERT_EQ(sim::wide_lane_value(sliced, n, words, lane),
                        expect(lane))
                  << "lane " << lane;
              ASSERT_EQ(values[lane], expect(lane)) << "lane " << lane;
            }
          }
        }
      }
    }
  }
}

TEST(BatchEngineWide, RejectsBadArguments) {
  WideBatch ops(8, 64);
  EXPECT_THROW(sim::wide_aca_add(ops, 0), std::invalid_argument);
  EXPECT_THROW(sim::wide_aca_add(WideBatch(0, 64), 4), std::invalid_argument);
  // Lane counts are validated at dispatch: not a multiple of 64, zero,
  // or beyond kMaxBatchLanes all reject.
  WideBatch bad(8, 64);
  bad.lanes = 96;
  EXPECT_THROW(sim::wide_aca_add(bad, 4), std::invalid_argument);
  bad.lanes = 0;
  EXPECT_THROW(sim::wide_aca_add(bad, 4), std::invalid_argument);
  bad.lanes = 1024;
  EXPECT_THROW(sim::wide_aca_add(bad, 4), std::invalid_argument);
  EXPECT_THROW(sim::wide_lane_values(ops.a, 8, 128), std::invalid_argument);
  // The p-only entry points check the same shape: window, width, lane
  // count and slice length.
  WideResult out;
  std::vector<int> runs;
  std::vector<std::uint64_t> scratch;
  EXPECT_THROW(sim::wide_propagate_flags_into(ops.a, 8, 64, 0, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_propagate_flags_into({}, 0, 64, 4, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_propagate_flags_into(ops.a, 8, 96, 4, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_propagate_flags_into(ops.a, 8, 128, 4, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_propagate_runs_into(ops.a, 9, 64, runs, scratch),
               std::invalid_argument);
  EXPECT_THROW(
      sim::wide_transpose_batch(
          std::vector<std::pair<BitVec, BitVec>>(65,
                                                 {BitVec(8), BitVec(8)}),
          8, 64),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Flags-only evaluation (wide_aca_flags_into), what Monte-Carlo calls:
// the same masks as the full evaluation, at every edge of the blocks of
// k positions the kernel builds R_k from.
// ---------------------------------------------------------------------------

/// (n, k) shapes whose top bit lands inside the first block, on its
/// last offset, just past it, and around the second and third block
/// ends; plus k = n, k = n + 1 and k far beyond n.
std::vector<std::pair<int, int>> block_edge_shapes() {
  std::vector<std::pair<int, int>> out;
  for (int k : {1, 2, 7, 23}) {
    for (int n : {k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1, 3 * k}) {
      if (n >= 1) out.emplace_back(n, k);
    }
  }
  for (int n : {1, 5, 64, 100}) {
    for (int k : {n, n + 1, 40 * n + 7}) out.emplace_back(n, k);
  }
  return out;
}

/// The propagate signal the kernel reads from a batch: a ^ b, or for
/// the subtraction a ^ ~b.  Monte-Carlo draws this first and builds b
/// from it (b = a ^ p, or ~(a ^ p)).
std::vector<std::uint64_t> propagate_of(const WideBatch& ops, bool subtract) {
  const std::uint64_t flip = subtract ? ~std::uint64_t{0} : 0;
  std::vector<std::uint64_t> p(ops.a.size());
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = ops.a[i] ^ ops.b[i] ^ flip;
  return p;
}

TEST(BatchEngineFlags, MatchFullOutputsAndScalarModelAtBlockEdges) {
  // Uniform operands, long runs (b = ~a with one word redrawn), every
  // position propagating for the addition (b = ~a) and every position
  // propagating for the subtraction, whose carry in is all ones
  // (b = a).  Each batch runs through wide_aca_add (with and without an
  // all-ones carry in), wide_aca_sub, wide_aca_flags_into both ways and
  // the p-only mode (wide_propagate_flags_into) on each way's p.
  Rng rng(0xf1a65);
  for (Isa isa : testable_isas()) {
    const char* label = sim::isa_name(isa);
    for (int lanes : {64, 256, 512}) {
      const std::vector<std::uint64_t> none;
      const std::vector<std::uint64_t> ones(
          static_cast<std::size_t>(lanes) / 64, ~std::uint64_t{0});
      for (const auto& [n, k] : block_edge_shapes()) {
        SCOPED_TRACE(std::string(label) + " lanes " + std::to_string(lanes) +
                     " n " + std::to_string(n) + " k " + std::to_string(k));
        WideBatch ops(n, lanes);
        for (int t = 0; t < 4; ++t) {
          sim::fill_uniform(rng, ops);
          if (t == 1 || t == 2) {
            for (std::size_t i = 0; i < ops.b.size(); ++i) {
              ops.b[i] = ~ops.a[i];
            }
          }
          if (t == 1) ops.b[rng.next_below(ops.b.size())] = rng.next_u64();
          if (t == 3) ops.b = ops.a;
          WideResult flags, from_p;
          sim::wide_aca_flags_into(ops, k, /*subtract=*/false, flags, isa);
          const auto add = sim::wide_aca_add(ops, k, nullptr, isa);
          expect_lanes_match_scalar(ops, none, k, add, label);
          ASSERT_EQ(flags.flagged, add.flagged);
          ASSERT_EQ(flags.wrong, add.wrong);
          ASSERT_TRUE(flags.sum_spec.empty());
          sim::wide_propagate_flags_into(propagate_of(ops, false), n, lanes, k,
                                         from_p, isa);
          ASSERT_EQ(from_p.flagged, flags.flagged);
          ASSERT_TRUE(from_p.wrong.empty());
          expect_lanes_match_scalar(ops, ones, k,
                                    sim::wide_aca_add(ops, k, ones.data(), isa),
                                    label);

          sim::wide_aca_flags_into(ops, k, /*subtract=*/true, flags, isa);
          const auto sub = sim::wide_aca_sub(ops, k, isa);
          WideBatch negated = ops;
          for (auto& word : negated.b) word = ~word;
          expect_lanes_match_scalar(negated, ones, k, sub, label);
          ASSERT_EQ(flags.flagged, sub.flagged);
          ASSERT_EQ(flags.wrong, sub.wrong);
          sim::wide_propagate_flags_into(propagate_of(ops, true), n, lanes, k,
                                         from_p, isa);
          ASSERT_EQ(from_p.flagged, flags.flagged);
          if (HasFatalFailure()) return;
          if (t == 3) {
            // a - a: every position propagates the all-ones carry in, so
            // every full window mispredicts.
            for (int lane = 0; lane < lanes; ++lane) {
              ASSERT_EQ(flags.flagged_lane(lane), k <= n) << "lane " << lane;
              ASSERT_EQ(flags.wrong_lane(lane), k <= n) << "lane " << lane;
            }
          }
        }
      }
    }
  }
}

TEST(BatchEngineFlags, ReusedResultDropsStaleOutputs) {
  // One WideResult through a full evaluation, then flags only, then a
  // narrower full evaluation: each call leaves exactly its own outputs.
  Rng rng(0x57a1e);
  WideBatch wide(333, 256), narrow(64, 64);
  sim::fill_uniform(rng, wide);
  sim::fill_uniform(rng, narrow);
  WideResult out;
  sim::wide_aca_add_into(wide, 9, nullptr, out);
  ASSERT_EQ(out.sum_spec.size(), wide.a.size());
  sim::wide_aca_flags_into(wide, 9, false, out);
  EXPECT_TRUE(out.sum_spec.empty());
  EXPECT_TRUE(out.carry_out_spec.empty());
  EXPECT_TRUE(out.carry_out_exact.empty());
  EXPECT_EQ(out.flagged, sim::wide_aca_add(wide, 9).flagged);
  EXPECT_EQ(out.wrong, sim::wide_aca_add(wide, 9).wrong);
  sim::wide_aca_add_into(narrow, 5, nullptr, out);
  const auto fresh = sim::wide_aca_add(narrow, 5);
  EXPECT_EQ(out.sum_spec, fresh.sum_spec);
  EXPECT_EQ(out.carry_out_spec, fresh.carry_out_spec);
  EXPECT_EQ(out.carry_out_exact, fresh.carry_out_exact);
  EXPECT_EQ(out.flagged, fresh.flagged);
  EXPECT_EQ(out.wrong, fresh.wrong);
  // The p-only mode leaves only `flagged`.
  sim::wide_propagate_flags_into(propagate_of(narrow, false), 64, 64, 5, out);
  EXPECT_TRUE(out.sum_spec.empty());
  EXPECT_TRUE(out.wrong.empty());
  EXPECT_EQ(out.flagged, fresh.flagged);
  EXPECT_THROW(sim::wide_aca_flags_into(wide, 0, false, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Monte-Carlo's generator (sim::LaneRng): eight util::Rng streams read
// round-robin, the same words on every tier.
// ---------------------------------------------------------------------------

TEST(LaneRng, FillReadsEightSplitStatesRoundRobinOnEveryTier) {
  // Word i of a fill is the next draw of state i mod 8, state j being
  // parent.split(j).  Tail rule: a fill of m words steps every state
  // ceil(m / 8) times, so the next fill starts again at state 0 and the
  // words of a partial last round past m are dropped, never written.
  const Rng parent(0x1a9e5);
  constexpr std::uint64_t kGuard = 0x6a09e667f3bcc908ULL;
  for (Isa isa : testable_isas()) {
    for (const std::size_t m : {0, 1, 7, 8, 9, 333, 8192}) {
      SCOPED_TRACE(std::string(sim::isa_name(isa)) + " m " +
                   std::to_string(m));
      sim::LaneRng lanes(parent);
      std::vector<Rng> states;
      for (std::uint64_t j = 0; j < 8; ++j) states.push_back(parent.split(j));
      // Three fills of m words, then one of 8: each continues the stream
      // where the tail rule left it.
      for (const std::size_t size : {m, m, m, std::size_t{8}}) {
        std::vector<std::uint64_t> buf(size + 8, kGuard);
        lanes.fill(std::span<std::uint64_t>(buf.data(), size), isa);
        const std::size_t rounds = (size + 7) / 8;
        for (std::size_t i = 0; i < rounds * 8; ++i) {
          const std::uint64_t want = states[i % 8].next_u64();
          if (i < size) {
            ASSERT_EQ(buf[i], want) << "word " << i;
          }
        }
        for (std::size_t i = size; i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], kGuard) << "wrote past the span at " << i;
        }
      }
    }
  }
}

TEST(LaneRng, FillUniformDrawsAThenBAndMovesOn) {
  // fill_uniform draws a, then b, from LaneRng(rng) and then steps rng
  // once, so successive calls on one generator draw different batches.
  Rng rng(0xb0a7);
  WideBatch first(100, 512), second(100, 512);
  Rng copy = rng;
  sim::fill_uniform(rng, first);
  sim::LaneRng lanes(copy);
  std::vector<std::uint64_t> a(first.a.size()), b(first.b.size());
  lanes.fill(a);
  lanes.fill(b);
  EXPECT_EQ(first.a, a);
  EXPECT_EQ(first.b, b);
  copy.next_u64();
  EXPECT_EQ(rng.next_u64(), copy.next_u64());
  sim::fill_uniform(rng, second);
  EXPECT_NE(first.a, second.a);
  EXPECT_NE(first.b, second.b);
  EXPECT_NE(first.a, first.b);
}

// ---------------------------------------------------------------------------
// Row-major evaluator (sim/row_kernel.hpp): one pair in its own limbs,
// pinned to the scalar model and to the sliced engine on the active
// tier (so the forced-ISA reruns compare it with every tier).
// ---------------------------------------------------------------------------

/// The sliced engine's `wrong`: the speculative sum or carry out differs
/// from the exact one.  aca_is_exact compares sums only, so the two
/// differ exactly when nothing but the top carry-out mispredicts.
bool mispredicts(const BitVec& a, const BitVec& b, int k) {
  const auto spec = aca_add(a, b, k);
  const auto exact = a.add_with_carry(b);
  return spec.sum != exact.sum || spec.carry_out != exact.carry_out;
}

/// Check row_aca_add and the in-place exact add on one pair against the
/// scalar model.
void expect_row_matches_scalar(const BitVec& a, const BitVec& b, int k) {
  BitVec sum(a.width());
  std::vector<std::uint64_t> run;
  const sim::RowFlags got = sim::row_aca_add(a, b, k, sum, run);
  const auto exact = a.add_with_carry(b);
  const std::string at = "n=" + std::to_string(a.width()) +
                         " k=" + std::to_string(k) + " a=" + a.to_hex() +
                         " b=" + b.to_hex();
  ASSERT_EQ(sum, exact.sum) << at;
  ASSERT_EQ(got.flagged, aca_flag(a, b, k)) << at;
  ASSERT_EQ(got.wrong, mispredicts(a, b, k)) << at;
  if (!got.wrong) {
    ASSERT_TRUE(aca_is_exact(a, b, k)) << at;
  }
  ASSERT_TRUE(got.flagged || !got.wrong) << "unflagged mispredict " << at;
  BitVec copy = a;
  ASSERT_EQ(copy.add_into(b, copy), exact.carry_out) << at;
  ASSERT_EQ(copy, exact.sum) << at;
}

/// Evaluate `pairs` on the sliced engine, in batches of the active
/// tier's lane count, and row by row; every flag, mispredict bit, exact
/// carry-out and (where unflagged, so exact) speculative sum must agree.
void expect_rows_match_engine(
    const std::vector<std::pair<BitVec, BitVec>>& pairs, int n, int k) {
  const auto lanes = static_cast<std::size_t>(sim::active_lanes());
  if (pairs.size() > lanes) {
    for (std::size_t i = 0; i < pairs.size(); i += lanes) {
      const auto end = pairs.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(pairs.size(), i + lanes));
      expect_rows_match_engine(
          {pairs.begin() + static_cast<std::ptrdiff_t>(i), end}, n, k);
      if (::testing::Test::HasFatalFailure()) return;
    }
    return;
  }
  const auto ops =
      sim::wide_transpose_batch(pairs, n, static_cast<int>(lanes));
  const auto got = sim::wide_aca_add(ops, k, nullptr);
  BitVec sum(n);
  std::vector<std::uint64_t> run;
  for (std::size_t lane = 0; lane < pairs.size(); ++lane) {
    const auto& [a, b] = pairs[lane];
    const int j = static_cast<int>(lane);
    const sim::RowFlags row = sim::row_aca_add(a, b, k, sum, run);
    const std::string at = std::string(sim::isa_name(sim::active_isa())) +
                           " n=" + std::to_string(n) +
                           " k=" + std::to_string(k) + " lane " +
                           std::to_string(lane);
    ASSERT_EQ(row.flagged, got.flagged_lane(j)) << at;
    ASSERT_EQ(row.wrong, got.wrong_lane(j)) << at;
    BitVec copy = a;
    ASSERT_EQ(copy.add_into(b, copy), mask_lane(got.carry_out_exact, j))
        << at;
    if (!row.flagged) {
      ASSERT_EQ(sum, sim::wide_lane_value(got.sum_spec, n, ops.words(), j))
          << at;
    }
  }
}

/// b = ~a with `flips` random bits flipped: long propagate runs, broken
/// by a few generates and kills.
BitVec adversarial_partner(Rng& rng, const BitVec& a, int flips) {
  BitVec b = ~a;
  for (int f = 0; f < flips; ++f) {
    const int i = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(a.width())));
    b.set_bit(i, !b.bit(i));
  }
  return b;
}

TEST(BatchEngineRow, ExhaustiveWidth8EveryWindow) {
  // All 2^16 pairs at width 8, every window 1..8 and one wider than the
  // operand, against the scalar model and, 64 pairs at a time, the
  // sliced engine.
  for (int k = 1; k <= 9; ++k) {
    std::vector<std::pair<BitVec, BitVec>> pairs;
    for (int av = 0; av < 256; ++av) {
      for (int bv = 0; bv < 256; ++bv) {
        const BitVec a = BitVec::from_u64(8, av);
        const BitVec b = BitVec::from_u64(8, bv);
        expect_row_matches_scalar(a, b, k);
        if (HasFatalFailure()) return;
        pairs.emplace_back(a, b);
        if (pairs.size() == 64) {
          expect_rows_match_engine(pairs, 8, k);
          if (HasFatalFailure()) return;
          pairs.clear();
        }
      }
    }
  }
}

TEST(BatchEngineRow, MatchesScalarAndEngineAcrossWidthsAndWindows) {
  // Widths that end inside, on and past a limb, windows from 1 to past
  // the width (k > 128 doubles by 64 bits or more per step; 1024/23 is
  // the service's shape), uniform and adversarial pairs mixed.
  Rng rng(0x40e);
  for (int n : {1, 63, 64, 65, 96, 333, 1024}) {
    std::vector<int> ks = windows_for(n);
    for (int k : {2, 23, 64, 65, 129, 200, n - 1, n + 1, 2 * n}) {
      if (k >= 1 && std::find(ks.begin(), ks.end(), k) == ks.end()) {
        ks.push_back(k);
      }
    }
    for (int k : ks) {
      const int count = n <= 96 ? 128 : 48;
      std::vector<std::pair<BitVec, BitVec>> pairs;
      for (int t = 0; t < count; ++t) {
        const BitVec a = rng.next_bits(n);
        const BitVec b = t % 2 == 0
                             ? rng.next_bits(n)
                             : adversarial_partner(rng, a, 1 + t % 5);
        expect_row_matches_scalar(a, b, k);
        if (HasFatalFailure()) return;
        pairs.emplace_back(a, b);
      }
      expect_rows_match_engine(pairs, n, k);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BatchEngineRow, RunsStraddlingLimbBoundaries) {
  // One propagate run of length `len` starting at `start` (crossing a
  // limb boundary for most placements), every other position a
  // generate or a kill.  With a generate just below it the run carries
  // 1 in, so the ACA mispredicts exactly when len >= k; with a kill it
  // carries 0 and never does.  A length-k run ending at the top bit
  // with a generate below mispredicts only the carry out: the sum is
  // exact, and `wrong` must still say so.
  Rng rng(0x5712);
  for (int n : {130, 333, 1024}) {
    for (int k : {5, 23, 64, 65, 100}) {
      for (int len : {k - 1, k, k + 1, 2 * k + 3}) {
        for (int start : {1, 60, 63, 64, 65, 120, n - len}) {
          if (len < 1 || start < 1 || start + len > n) continue;
          for (bool carry_in : {false, true}) {
            BitVec a(n), b(n);
            for (int i = 0; i < n; ++i) {
              const bool bit = rng.next_below(2) == 1;
              a.set_bit(i, bit);
              b.set_bit(i, bit);  // a == b: generate or kill
            }
            for (int i = start; i < start + len; ++i) b.set_bit(i, !a.bit(i));
            a.set_bit(start - 1, carry_in);
            b.set_bit(start - 1, carry_in);
            // No other position propagates, so only this run can carry
            // a wrong speculation.
            BitVec sum(n);
            std::vector<std::uint64_t> run;
            const sim::RowFlags got = sim::row_aca_add(a, b, k, sum, run);
            const std::string at = "n=" + std::to_string(n) +
                                   " k=" + std::to_string(k) +
                                   " len=" + std::to_string(len) +
                                   " start=" + std::to_string(start);
            ASSERT_EQ(got.flagged, len >= k) << at;
            ASSERT_EQ(got.wrong, len >= k && carry_in) << at;
            expect_row_matches_scalar(a, b, k);
            if (HasFatalFailure()) return;
            if (start + len == n && len == k && carry_in) {
              ASSERT_TRUE(aca_is_exact(a, b, k)) << "top carry only " << at;
            }
          }
        }
      }
    }
  }
}

TEST(BatchEngineRow, RejectsBadArguments) {
  const BitVec a(64), b(64), narrow(63), empty(0);
  BitVec sum(64), narrow_sum(63), empty_sum(0);
  std::vector<std::uint64_t> run;
  EXPECT_THROW(sim::row_aca_add(a, narrow, 4, sum, run),
               std::invalid_argument);
  EXPECT_THROW(sim::row_aca_add(a, b, 4, narrow_sum, run),
               std::invalid_argument);
  EXPECT_THROW(sim::row_aca_add(a, b, 0, sum, run), std::invalid_argument);
  EXPECT_THROW(sim::row_aca_add(empty, empty, 4, empty_sum, run),
               std::invalid_argument);
  BitVec c(64);
  EXPECT_THROW(sim::row_aca_add(c, b, 4, c, run), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ISA probing and dispatch resolution.
// ---------------------------------------------------------------------------

TEST(BatchEngineIsa, NamesLanesAndParsingAgree) {
  EXPECT_STREQ(sim::isa_name(Isa::Scalar), "scalar");
  EXPECT_STREQ(sim::isa_name(Isa::Avx2), "avx2");
  EXPECT_STREQ(sim::isa_name(Isa::Avx512), "avx512");
  EXPECT_EQ(sim::isa_lanes(Isa::Scalar), 64);
  EXPECT_EQ(sim::isa_lanes(Isa::Avx2), 256);
  EXPECT_EQ(sim::isa_lanes(Isa::Avx512), 512);
  for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    EXPECT_EQ(sim::parse_isa(sim::isa_name(isa)), isa);
  }
  EXPECT_EQ(sim::parse_isa("AVX2"), Isa::Avx2);       // case-insensitive
  EXPECT_EQ(sim::parse_isa("avx-512"), Isa::Avx512);  // hyphen alias
  EXPECT_EQ(sim::parse_isa("neon"), std::nullopt);
  EXPECT_EQ(sim::parse_isa(""), std::nullopt);
}

TEST(BatchEngineIsa, SupportImpliesCompiledAndScalarAlwaysWorks) {
  EXPECT_TRUE(sim::isa_compiled(Isa::Scalar));
  EXPECT_TRUE(sim::isa_supported(Isa::Scalar));
  for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
    if (sim::isa_supported(isa)) {
      EXPECT_TRUE(sim::isa_compiled(isa));
    }
  }
  EXPECT_TRUE(sim::isa_supported(sim::best_isa()));
  EXPECT_TRUE(sim::isa_supported(sim::active_isa()));
  EXPECT_EQ(sim::active_lanes(), sim::isa_lanes(sim::active_isa()));
}

TEST(BatchEngineIsa, BestIsaIsTheWidestSupportedTier) {
  const auto tiers = testable_isas();  // narrowest first
  EXPECT_EQ(sim::best_isa(), tiers.back());
}

TEST(BatchEngineIsa, ResolvedIsaFallsBackToDividingTier) {
  // resolved_isa reports which tier a dispatch actually runs: the
  // widest supported tier <= requested whose group divides the batch.
  for (Isa req : testable_isas()) {
    // 64 lanes (1 word): only the scalar group divides it.
    EXPECT_EQ(sim::resolved_isa(req, 64), Isa::Scalar);
    // 128 lanes (2 words): no SIMD group (4 or 8 words) divides it.
    EXPECT_EQ(sim::resolved_isa(req, 128), Isa::Scalar);
    const Isa at256 = sim::resolved_isa(req, 256);
    const Isa at512 = sim::resolved_isa(req, 512);
    if (req == Isa::Scalar) {
      EXPECT_EQ(at256, Isa::Scalar);
      EXPECT_EQ(at512, Isa::Scalar);
    } else {
      // 256 lanes never resolves above AVX2 (the AVX-512 group is 8
      // words, 256 lanes is 4); 512 takes the requested tier.
      EXPECT_EQ(at256, Isa::Avx2);
      EXPECT_EQ(at512, req);
    }
  }
  EXPECT_THROW(static_cast<void>(sim::resolved_isa(Isa::Scalar, 0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(sim::resolved_isa(Isa::Scalar, 96)),
               std::invalid_argument);
}

TEST(BatchEngineIsa, ForcedIsaIsHonored) {
  // When CI forces a tier via VLSA_FORCE_ISA, the process-wide choice
  // must match it — this is what makes the forced-scalar differential
  // run in CI meaningful.
  const char* forced = std::getenv("VLSA_FORCE_ISA");
  if (forced == nullptr || *forced == '\0') {
    GTEST_SKIP() << "VLSA_FORCE_ISA not set";
  }
  const auto parsed = sim::parse_isa(forced);
  ASSERT_TRUE(parsed.has_value()) << forced;
  EXPECT_EQ(sim::active_isa(), *parsed);
}

}  // namespace
}  // namespace vlsa
