#pragma once
// Bit-sliced (transposed) batch evaluator for the ACA — 64 to 512
// independent additions per evaluation.
//
// The scalar model in core/aca.hpp walks one operand pair bit by bit;
// Monte-Carlo studies built on it top out around 1e4-1e5 trials.  This
// engine stores a batch of operand pairs *transposed*: bit i of the
// batch lives in the `lanes/64` consecutive words at offset
// `i * (lanes/64)`, lane j in bit (j % 64) of word (j / 64) of each
// group.  All the adder's signals — propagate/generate, the exact
// carries, the k-propagate run mask R_k, the speculative carries
// c_spec = c_exact & ~R_k (docs/theory.md §4), the ER flag, the
// mispredict indicator — are then plain AND/OR/XOR recurrences over
// those words, evaluating every lane simultaneously.  R_k is built by
// doubling runs of length 1, 2, 4, ..., so one batch costs O(n log k)
// word operations per 64 lanes instead of a per-bit interpreted loop,
// which is where batch Monte-Carlo (workloads/batch_monte_carlo.hpp)
// gets its two-orders-of-magnitude throughput win.  Evaluation runs on
// the widest kernel the requested ISA allows (see sim/isa.hpp): one
// AVX-512 step advances 512 lanes, AVX2 256, scalar 64, all
// bit-identical to each other.
//
// The engine is only a valid reproduction instrument because it is
// bit-exactly equivalent to the scalar specification:
// tests/test_batch_engine.cpp proves every output lane equal to
// core::aca_add / aca_flag / aca_is_exact across widths, windows, the
// carry-in path, and the subtraction path (exhaustively at width 8),
// and forces each kernel tier via VLSA_FORCE_ISA.

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/isa.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace vlsa::sim {

/// Widest batch any kernel tier produces (AVX-512: 8 words x 64).
inline constexpr int kMaxBatchLanes = 512;

/// `lanes` operand pairs in the wide transposed layout; lanes must be a
/// positive multiple of 64, at most kMaxBatchLanes.  Unused lanes are
/// all-zero (they validly compute 0+0).
struct WideBatch {
  explicit WideBatch(int w = 0, int l = 64)
      : width(w),
        lanes(l),
        a(static_cast<std::size_t>(w) * (l / 64), 0),
        b(static_cast<std::size_t>(w) * (l / 64), 0) {}

  int width = 0;
  int lanes = 64;
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;

  /// Words per bit position (= lane-mask words = lanes / 64).
  [[nodiscard]] int words() const { return lanes / 64; }
};

/// All outputs of one wide evaluation.  `sum_spec` holds
/// `width * words()` words (wide slice layout); mask members hold
/// `words()` words, lane j in bit (j % 64) of word (j / 64).  Reusing
/// one WideResult across calls reuses its buffers: a steady caller
/// allocates nothing per evaluation.
struct WideResult {
  int width = 0;
  int lanes = 0;
  std::vector<std::uint64_t> sum_spec;    ///< speculative (ACA) sums
  std::vector<std::uint64_t> carry_out_spec;   ///< lane mask
  std::vector<std::uint64_t> carry_out_exact;  ///< lane mask
  std::vector<std::uint64_t> flagged;  ///< lane mask: ER fired (chain >= k)
  std::vector<std::uint64_t> wrong;    ///< lane mask: speculative != exact
  /// Engine working memory (the run mask; for subtraction also ~b and
  /// the all-ones carry-in).  Not an output.
  std::vector<std::uint64_t> scratch;

  [[nodiscard]] int words() const { return lanes / 64; }
  [[nodiscard]] bool flagged_lane(int lane) const {
    return ((flagged[static_cast<std::size_t>(lane >> 6)] >> (lane & 63)) &
            1) != 0;
  }
  [[nodiscard]] bool wrong_lane(int lane) const {
    return ((wrong[static_cast<std::size_t>(lane >> 6)] >> (lane & 63)) &
            1) != 0;
  }
};

/// Evaluate ACA(width, k) on all lanes: the speculative sum, both
/// carry-outs, the ER flag and whether the speculative result differs
/// from the exact one.
/// `carry_in` is a nullable lane-mask pointer (`ops.words()` words;
/// nullptr = no carry in).  `isa` is the upper bound on the kernel tier
/// (see resolved_isa); the default is the process-wide choice.
void wide_aca_add_into(const WideBatch& ops, int k,
                       const std::uint64_t* carry_in, WideResult& out,
                       Isa isa = active_isa());

[[nodiscard]] WideResult wide_aca_add(const WideBatch& ops, int k,
                                      const std::uint64_t* carry_in = nullptr,
                                      Isa isa = active_isa());

/// Lane-wise speculative subtraction a - b (a + ~b + 1 per lane).
void wide_aca_sub_into(const WideBatch& ops, int k, WideResult& out,
                       Isa isa = active_isa());

[[nodiscard]] WideResult wide_aca_sub(const WideBatch& ops, int k,
                                      Isa isa = active_isa());

/// Per-lane longest propagate chain (`ops.lanes` entries).
[[nodiscard]] std::vector<int> wide_longest_runs(const WideBatch& ops,
                                                 Isa isa = active_isa());

/// Transpose up to `lanes` scalar operand pairs (all of `width`) into a
/// wide batch; lanes beyond `pairs.size()` are zero.  The bit-matrix
/// transpose runs on the `isa` tier (4/8 blocks per step — see
/// wide_kernel.hpp:kernel_transpose64), over the lane groups the pairs
/// fill; the result is identical on every tier.  Tests and probes use
/// this to build batches from chosen operands; the service evaluates
/// requests row-major instead (sim/row_kernel.hpp).
[[nodiscard]] WideBatch wide_transpose_batch(
    const std::vector<std::pair<util::BitVec, util::BitVec>>& pairs,
    int width, int lanes, Isa isa = active_isa());

/// Read one lane out of a wide-sliced signal of `words` stride.
[[nodiscard]] util::BitVec wide_lane_value(
    const std::vector<std::uint64_t>& sliced, int width, int words, int lane);

/// All `lanes` lanes of a wide-sliced signal as new `width`-bit values,
/// through the word-level un-transpose on the `isa` tier (the inverse
/// of wide_transpose_batch).
[[nodiscard]] std::vector<util::BitVec> wide_lane_values(
    const std::vector<std::uint64_t>& sliced, int width, int lanes,
    Isa isa = active_isa());

/// Fill a batch with i.i.d. uniform bits.  Drawing each slice word
/// directly is distribution-identical to transposing `lanes` scalar
/// `rng.next_bits(width)` draws (every bit of every lane is an
/// independent fair coin either way) — this is the fast path of
/// uniform Monte-Carlo runs.  It is *not* the same stream as the
/// scalar draws, so scalar and batch runs agree in distribution, not
/// trial-for-trial.
void fill_uniform(util::Rng& rng, WideBatch& batch);

}  // namespace vlsa::sim
