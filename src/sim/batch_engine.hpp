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
// those words, evaluating every lane simultaneously.  One streaming
// pass builds R_k from block prefix and suffix ANDs (wide_kernel.hpp),
// so one batch costs O(n) word operations per 64 lanes at any window
// instead of a per-bit interpreted loop, which is where batch
// Monte-Carlo (workloads/batch_monte_carlo.hpp) gets its
// two-orders-of-magnitude throughput win.  It draws the propagate
// signal p first (LaneRng), takes the flags from p alone
// (wide_propagate_flags_into) and runs the flags-only evaluation
// (wide_aca_flags_into) only on a batch in which some lane flagged,
// skipping every sum store.  Evaluation runs on the widest kernel the
// requested ISA allows (see sim/isa.hpp): one AVX-512 step advances
// 512 lanes, AVX2 256, scalar 64, all bit-identical to each other.
//
// The engine is only a valid reproduction instrument because it is
// bit-exactly equivalent to the scalar specification:
// tests/test_batch_engine.cpp proves every output lane equal to
// core::aca_add / aca_flag / aca_is_exact across widths, windows, the
// carry-in path, and the subtraction path (exhaustively at width 8),
// and forces each kernel tier via VLSA_FORCE_ISA.

#include <cstdint>
#include <span>
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
  /// Engine working memory (the window's block suffix ANDs, a few words
  /// per lane word, independent of the width).  Not an output.
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

/// Only the ER flag and the mispredict mask of ACA(width, k), for the
/// addition (no carry in) or, with `subtract`, the subtraction path:
/// the same `flagged` and `wrong` as wide_aca_add_into /
/// wide_aca_sub_into, without storing the speculative sum or the
/// carry-outs (left empty in `out`).  This is what Monte-Carlo reads.
void wide_aca_flags_into(const WideBatch& ops, int k, bool subtract,
                         WideResult& out, Isa isa = active_isa());

/// The ER flag of ACA(width, k) from the propagate signal alone: `p`
/// holds p = a ^ b (a ^ ~b for a subtraction) in the wide slice layout,
/// `width * lanes / 64` words.  Writes `out.flagged`, the mask
/// wide_aca_flags_into gives for any operands with that p, and leaves
/// every other output empty.
void wide_propagate_flags_into(std::span<const std::uint64_t> p, int width,
                               int lanes, int k, WideResult& out,
                               Isa isa = active_isa());

/// Per-lane longest propagate chain (`ops.lanes` entries).
[[nodiscard]] std::vector<int> wide_longest_runs(const WideBatch& ops,
                                                 Isa isa = active_isa());

/// Per-lane longest run of ones in `p` (layout as for
/// wide_propagate_flags_into), written to `runs` (`lanes` entries).
/// `scratch` is working memory: a caller that keeps both vectors
/// allocates nothing per call.
void wide_propagate_runs_into(std::span<const std::uint64_t> p, int width,
                              int lanes, std::vector<int>& runs,
                              std::vector<std::uint64_t>& scratch,
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

/// Monte-Carlo's operand stream: eight interleaved xoshiro256**
/// generators, state j a copy of `parent.split(j)`.  fill() writes
/// word i of its span from state i mod 8, so on every tier the words
/// equal eight util::Rng generators read round-robin.  Tail rule: a
/// fill of m words steps every state ceil(m / 8) times, so each fill
/// starts again at state 0 and a partial last round drops the words
/// past m.  Successive fills continue each state's sequence.  The
/// vector tiers step all eight states in registers (kernel_fill in
/// wide_kernel.hpp).
class LaneRng {
 public:
  static constexpr int kStates = 8;

  explicit LaneRng(const util::Rng& parent);

  void fill(std::span<std::uint64_t> out, Isa isa = active_isa());

 private:
  /// Word r (s0..s3) of state j at [r * kStates + j].
  std::uint64_t state_[4 * kStates] = {};
};

/// Fill a batch with i.i.d. uniform bits: `a`, then `b`, from one
/// LaneRng(rng), after which `rng` steps once, so successive calls
/// draw different batches.  Drawing each slice word directly is
/// distribution-identical to transposing `lanes` scalar
/// `rng.next_bits(width)` draws (every bit of every lane is an
/// independent fair coin either way), but it is *not* the same stream,
/// so scalar and batch runs agree in distribution, not trial-for-trial.
void fill_uniform(util::Rng& rng, WideBatch& batch);

}  // namespace vlsa::sim
