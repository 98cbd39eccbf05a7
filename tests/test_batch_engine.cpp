// Differential property tests for the bit-sliced batch engine: every
// output lane must match the scalar specification in core/aca.hpp
// bit-for-bit.  This equivalence is what licenses the batch Monte-Carlo
// driver as a *reproduction* instrument rather than a new model — the
// paper's statistics are only as trustworthy as this file.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "sim/batch_engine.hpp"
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

TEST(BatchEngine, FlagMaskMatchesDedicatedEvaluator) {
  Rng rng(0xf1a9);
  for (int n : {16, 64, 256}) {
    for (int k : {1, 4, 8, n}) {
      WideBatch ops(n, 64);
      for (int t = 0; t < 50; ++t) {
        sim::fill_uniform(rng, ops);
        ASSERT_EQ(sim::wide_aca_flag(ops, k),
                  sim::wide_aca_add(ops, k).flagged);
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
  // Each runs through addition with and without a carry-in mask,
  // subtraction and the flag-only evaluator, then on all-propagate
  // operands, where every window below bit k-1 is clamped at bit 0 and
  // must return the carry-in.
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
        const auto plain = sim::wide_aca_add(ops, k, nullptr, isa);
        expect_lanes_match_scalar(ops, none, k, plain, label);
        expect_lanes_match_scalar(
            ops, cin, k, sim::wide_aca_add(ops, k, cin.data(), isa), label);
        WideBatch negated = ops;
        for (auto& word : negated.b) word = ~word;
        expect_lanes_match_scalar(negated, ones, k,
                                  sim::wide_aca_sub(ops, k, isa), label);
        ASSERT_EQ(sim::wide_aca_flag(ops, k, isa), plain.flagged)
            << label << " n=" << e.n << " k=" << k;
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
        EXPECT_EQ(sim::wide_aca_flag(ops, k, isa), ref.flagged)
            << sim::isa_name(isa);
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

TEST(BatchEngineWide, TransposeRoundTripOnEveryTier) {
  Rng rng(0x7a2);
  const int n = 96;
  for (Isa isa : testable_isas()) {
    for (int lanes : {64, 256, 512}) {
      std::vector<std::pair<BitVec, BitVec>> pairs;
      const int used = lanes - 27;  // deliberately a partial batch
      for (int i = 0; i < used; ++i) {
        pairs.emplace_back(rng.next_bits(n), rng.next_bits(n));
      }
      const auto ops = sim::wide_transpose_batch(pairs, n, lanes, isa);
      const auto back_a = sim::wide_lane_values(ops.a, n, lanes, isa);
      const auto back_b = sim::wide_lane_values(ops.b, n, lanes, isa);
      for (int lane = 0; lane < used; ++lane) {
        ASSERT_EQ(back_a[static_cast<std::size_t>(lane)], pairs[lane].first)
            << sim::isa_name(isa) << " lane " << lane;
        ASSERT_EQ(back_b[static_cast<std::size_t>(lane)], pairs[lane].second)
            << sim::isa_name(isa) << " lane " << lane;
      }
      for (int lane = used; lane < lanes; ++lane) {
        ASSERT_TRUE(back_a[static_cast<std::size_t>(lane)].is_zero());
        ASSERT_TRUE(back_b[static_cast<std::size_t>(lane)].is_zero());
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
  EXPECT_THROW(
      sim::wide_transpose_batch(
          std::vector<std::pair<BitVec, BitVec>>(65,
                                                 {BitVec(8), BitVec(8)}),
          8, 64),
      std::invalid_argument);
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

TEST(BatchEngineIsa, LanesForBatchPicksSmallestFit) {
  EXPECT_EQ(sim::lanes_for_batch(1), 64);
  EXPECT_EQ(sim::lanes_for_batch(64), 64);
  EXPECT_EQ(sim::lanes_for_batch(65), 256);
  EXPECT_EQ(sim::lanes_for_batch(256), 256);
  EXPECT_EQ(sim::lanes_for_batch(257), 512);
  EXPECT_EQ(sim::lanes_for_batch(512), 512);
}

}  // namespace
}  // namespace vlsa
