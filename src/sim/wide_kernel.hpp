#pragma once
// The lane-width-generic ACA kernels, templated over a LaneWord (see
// lane_word.hpp), plus the function-pointer table the runtime ISA
// dispatcher (isa.cpp) selects from.
//
// Layout contract (the "wide slice" layout): a batch of `64 * words`
// lanes stores bit i of every lane in the `words` consecutive uint64_t
// at offset `i * stride`.  A kernel instantiated for a Word with
// kWords = G processes ONE group of 64*G lanes per call — the group
// whose words sit at offset `w0` within each slice — so the dispatcher
// covers a batch by looping `w0 = 0, G, 2G, ...` with any kernel whose
// G divides `words`.  Mask outputs (carry-outs, ER flags, mispredict)
// are lane masks occupying words [w0, w0+G).
//
// One streaming pass per lane group gives every output
// (docs/theory.md §4): the speculative carry is the exact carry except
// where a run of k propagates ends, c_spec[i] = c_exact[i] & ~R_k[i].
// The pass reads each bit position's a and b once, ripples the exact
// carry and keeps R_k as a sliding-window AND over blocks of k
// positions, the software form of the strips the paper's Fig. 3/4
// share between overlapping windows.  For i = q*k + j (block q,
// offset j),
//
//   R_k[i] = S_{q-1}[j+1] & P_q[j],
//
// where P_q[j] is the running AND of p over offsets 0..j of block q and
// S_{q-1}[j+1] the AND over offsets j+1..k-1 of block q-1, written by
// one backward pass when block q-1 completes.  That is three ANDs per
// bit position at any k, so a lane group costs O(n) word operations.
// The template only changes how many lanes one word step advances.
// Differential tests pin every instantiation to the scalar model
// (tests/test_batch_engine.cpp); the identity and this construction of
// R_k are proved at gate level (tests/test_formal.cpp,
// Formal.SpeculativeCarryIdentityMatchesBuildAca).
//
// The flag reads p alone, so a p-only mode of the same pass takes p
// through the `a` pointer and skips b, the ripple and `wrong`: batch
// Monte-Carlo draws p first and runs it on every batch.  The table
// also carries Monte-Carlo's generator (kernel_fill): eight
// interleaved xoshiro256** states, stepped one or two LaneWords at a
// time in registers.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sim/isa.hpp"
#include "sim/lane_word.hpp"

namespace vlsa::sim::detail {

/// What one kernel_eval instantiation computes.
enum class EvalMode {
  kAll,    ///< every output, from a and b
  kFlags,  ///< `flagged` and `wrong` only, from a and b
  kP,      ///< `flagged` only, from p = a ^ b read through `a`
};

/// Output pointers for one kernel_eval call, all in the wide slice
/// layout described above (sum_spec is `n * stride` words, mask arrays
/// are `stride` words; the kernel touches only its group).  The
/// flags-only mode writes just `flagged` and `wrong`, the p-only mode
/// just `flagged`.
struct EvalOut {
  std::uint64_t* sum_spec = nullptr;
  std::uint64_t* carry_out_spec = nullptr;
  std::uint64_t* carry_out_exact = nullptr;
  std::uint64_t* flagged = nullptr;
  std::uint64_t* wrong = nullptr;
};

/// Scratch words per lane word that kernel_eval needs for window `k`
/// at width `n`: one suffix word per block offset plus an all-ones
/// sentinel.  A window longer than n never fits, so k is clamped to
/// n + 1 (which never completes a block: R_k is 0 everywhere).
inline int eval_scratch_words(int n, int k) { return std::min(k, n + 1) + 1; }

/// ACA(n, k) on one lane group, checked against the exact carry chain,
/// in one pass over the bit positions.  `subtract` evaluates a + ~b + 1
/// (b is complemented as it is read, the carry in is all ones);
/// otherwise `carry_in` is a lane-mask base pointer (nullptr = no carry
/// in).  `suffix` is eval_scratch_words(n, k) * kWords words of working
/// memory.  EvalMode::kP reads the propagate signal itself through `a`
/// and ignores b, `subtract` and `carry_in`.
template <class Word, EvalMode kMode>
void kernel_eval(const std::uint64_t* a, const std::uint64_t* b, int n,
                 int stride, int w0, int k, bool subtract,
                 const std::uint64_t* carry_in, std::uint64_t* suffix,
                 const EvalOut& out) {
  constexpr bool kAllOutputs = kMode == EvalMode::kAll;
  constexpr bool kCarries = kMode != EvalMode::kP;
  constexpr int G = Word::kWords;
  const Word ones = Word::splat(~std::uint64_t{0});
  const Word flip = subtract ? ones : Word::zero();
  const int window = eval_scratch_words(n, k) - 1;
  // suffix[j] holds S_{q-1}[j]: zero before the first block completes,
  // so R_k[i] = 0 for i < k-1; suffix[window] = S[k] is all ones.  The
  // word at offset j is read (as S[j+1]) by offset j-1 and is then
  // free, so offset j parks its p there for the next backward pass.
  std::fill(suffix, suffix + static_cast<std::size_t>(window) * G,
            std::uint64_t{0});
  ones.store(suffix + static_cast<std::size_t>(window) * G);
  // Exact ripple, c_e[i] = g_i | (p_i & c_e[i-1]) with c_e[-1] = carry
  // in, and c_s[i] = c_e[i] & ~R_k[i]: a window that is all propagates
  // speculates 0, any other window sees the exact carry.  R_k is 0 for
  // i < k-1, so the short windows at the bottom keep the carry-in.
  // A lane is wrong iff some carry differs, i.e. c_e & R_k somewhere.
  const Word cin = subtract            ? ones
                   : carry_in == nullptr ? Word::zero()
                                         : Word::load(carry_in + w0);
  Word ce = cin;
  Word cs = cin;
  Word flagged = Word::zero();
  Word wrong = Word::zero();
  for (int i0 = 0; i0 < n; i0 += window) {
    const int len = std::min(window, n - i0);
    Word prefix = ones;  // P_q[j]
    for (int j = 0; j < len; ++j) {
      const std::size_t at = static_cast<std::size_t>(i0 + j) * stride + w0;
      const Word av = Word::load(a + at);
      const Word bv = kCarries ? Word::load(b + at) ^ flip : Word::zero();
      const Word p = av ^ bv;
      prefix = prefix & p;
      const Word run = Word::load(suffix + (j + 1) * G) & prefix;
      p.store(suffix + j * G);
      flagged = flagged | run;
      if constexpr (kCarries) {
        if constexpr (kAllOutputs) (p ^ cs).store(out.sum_spec + at);
        ce = (av & bv) | (p & ce);
        const Word miss = ce & run;
        if constexpr (kAllOutputs) cs = ce ^ miss;
        wrong = wrong | miss;
      }
    }
    if (len == window) {
      // Block complete: turn its parked p words into S_q[j], the AND
      // over offsets j..k-1, with the running AND kept in a register.
      Word s = Word::load(suffix + (window - 1) * G);
      for (int j = window - 2; j >= 0; --j) {
        s = s & Word::load(suffix + j * G);
        s.store(suffix + j * G);
      }
    }
  }
  if constexpr (kAllOutputs) {
    cs.store(out.carry_out_spec + w0);
    ce.store(out.carry_out_exact + w0);
  }
  flagged.store(out.flagged + w0);
  if constexpr (kCarries) wrong.store(out.wrong + w0);
}

/// Per-lane longest run of ones in the propagate signal `p` (the
/// longest propagate chain) for one group; `runs` receives
/// 64 * Word::kWords entries (lane order within the group) and `r` is
/// n * Word::kWords words of working memory.  Round t holds r[i], the
/// lanes whose run of ones ending at i is at least t long, and `alive`,
/// their OR.  A run of t + 1 ends at i iff runs of t end at both i - 1
/// and i, so one loop per round ANDs each r[i] with r[i - 1] and ORs
/// the result, without reading p again; a lane's longest run is the
/// last round it was alive in.
template <class Word>
void kernel_longest_runs(const std::uint64_t* p, int n, int stride, int w0,
                         std::uint64_t* r, int* runs) {
  constexpr int G = Word::kWords;
  Word alive = Word::zero();
  for (int i = 0; i < n; ++i) {
    const Word v = Word::load(p + static_cast<std::size_t>(i) * stride + w0);
    v.store(r + static_cast<std::size_t>(i) * G);
    alive = alive | v;
  }
  std::fill(runs, runs + 64 * G, 0);
  std::uint64_t words[G];
  for (int t = 1;; ++t) {
    // Round t + 1: r[i] for i < t is 0 from here on (a run of t + 1
    // ends at i >= t), so the loop starts at t.
    Word next = Word::zero();
    if (t < n) {
      Word below = Word::load(r + static_cast<std::size_t>(t - 1) * G);
      for (int i = t; i < n; ++i) {
        const Word here = Word::load(r + static_cast<std::size_t>(i) * G);
        const Word v = below & here;
        v.store(r + static_cast<std::size_t>(i) * G);
        next = next | v;
        below = here;
      }
    }
    // Lanes alive at t but not at t + 1 have a longest run of t.
    (alive ^ next).store(words);
    for (int w = 0; w < G; ++w) {
      for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
        runs[w * 64 + std::countr_zero(m)] = t;
      }
    }
    next.store(words);
    const auto empty = [](std::uint64_t m) { return m == 0; };
    if (std::all_of(words, words + G, empty)) return;
    alive = next;
  }
}

/// Interleaved xoshiro256** states in one Monte-Carlo generator
/// (sim::LaneRng): word i of a fill comes from state i mod kRngStates.
inline constexpr int kRngStates = 8;

/// Word::kWords xoshiro256** states stepped side by side, one per
/// 64-bit word: util::Rng::next_u64's recurrence, with the products by
/// 5 and 9 written as shift-adds.  `load` and `store` read the states'
/// words s0..s3 at a stride of kRngStates (sim::LaneRng's layout).
template <class Word>
struct XoshiroLanes {
  Word s0, s1, s2, s3;

  static XoshiroLanes load(const std::uint64_t* state) {
    return {Word::load(state), Word::load(state + kRngStates),
            Word::load(state + 2 * kRngStates),
            Word::load(state + 3 * kRngStates)};
  }
  void store(std::uint64_t* state) const {
    s0.store(state);
    s1.store(state + kRngStates);
    s2.store(state + 2 * kRngStates);
    s3.store(state + 3 * kRngStates);
  }
  Word next() {
    const Word y = (s1 + s1.shl(2)).rotl(7);  // rotl(s1 * 5, 7)
    const Word result = y + y.shl(3);         // * 9
    const Word t = s1.shl(17);
    s2 = s2 ^ s0;
    s3 = s3 ^ s1;
    s1 = s1 ^ s2;
    s0 = s0 ^ s3;
    s2 = s2 ^ t;
    s3 = s3.rotl(45);
    return result;
  }
};

/// Fill out[0, m) from the kRngStates generators in `state` (word r of
/// state j at state[r * kRngStates + j]): out[i] is draw i / 8 of state
/// i mod 8.  Every state steps ceil(m / 8) times, so a partial last
/// round still steps all eight and drops the words past m.  The states
/// step one bank of Word::kWords at a time, two banks side by side
/// where there are several, held in named registers for the whole loop
/// (one bank on AVX-512, two on AVX2, pairs of the eight on scalar).
template <class Word>
void kernel_fill(std::uint64_t* state, std::uint64_t* out, std::size_t m) {
  constexpr int G = Word::kWords;
  constexpr int kBanks = kRngStates / G;
  static_assert(kBanks == 1 || kBanks % 2 == 0);
  if (m == 0) return;
  const std::size_t rounds = m / kRngStates;
  const std::size_t rest = m % kRngStates;
  std::uint64_t tail[kRngStates] = {};
  for (int bank = 0; bank < kBanks; bank += kBanks == 1 ? 1 : 2) {
    std::uint64_t* const s = state + bank * G;
    XoshiroLanes<Word> x = XoshiroLanes<Word>::load(s);
    if constexpr (kBanks == 1) {
      for (std::size_t r = 0; r < rounds; ++r) {
        x.next().store(out + r * kRngStates);
      }
      if (rest != 0) x.next().store(tail);
    } else {
      XoshiroLanes<Word> y = XoshiroLanes<Word>::load(s + G);
      for (std::size_t r = 0; r < rounds; ++r) {
        std::uint64_t* const o = out + r * kRngStates + bank * G;
        x.next().store(o);
        y.next().store(o + G);
      }
      if (rest != 0) {
        x.next().store(tail + bank * G);
        y.next().store(tail + (bank + 1) * G);
      }
      y.store(s + G);
    }
    x.store(s);
  }
  std::copy_n(tail, rest, out + rounds * kRngStates);
}

/// In-place 64x64 bit-matrix transpose (recursive block swaps, Hacker's
/// Delight 7-3) of kWords INDEPENDENT blocks at once, stored
/// interleaved: word r of block g is t[r * kWords + g], and afterwards
/// bit c of word r of block g is what bit r of word c of block g was.
/// Interleaved is exactly the wide slice layout restricted to one lane
/// group, so wide_transpose_batch and wide_lane_values feed this
/// directly.  All 384 word operations of the scalar transpose become
/// 384 vector operations covering 4 or 8 blocks.
template <class Word>
void kernel_transpose64(std::uint64_t* t) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    const Word mask = Word::splat(m);
    for (int r = 0; r < 64; r = (r + j + 1) & ~j) {
      Word lo = Word::load(t + static_cast<std::size_t>(r) * Word::kWords);
      Word hi =
          Word::load(t + static_cast<std::size_t>(r + j) * Word::kWords);
      const Word x = (lo.shr(j) ^ hi) & mask;
      lo = lo ^ x.shl(j);
      hi = hi ^ x;
      lo.store(t + static_cast<std::size_t>(r) * Word::kWords);
      hi.store(t + static_cast<std::size_t>(r + j) * Word::kWords);
    }
  }
}

/// The per-ISA entry points the dispatcher selects between.  One table
/// per compiled LaneWord; `group_words` is Word::kWords.
struct Kernels {
  using Eval = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                        int n, int stride, int w0, int k, bool subtract,
                        const std::uint64_t* carry_in,
                        std::uint64_t* suffix, const EvalOut& out);
  int group_words = 1;
  Eval eval = nullptr;     ///< every output
  Eval flags = nullptr;    ///< `flagged` and `wrong` only
  Eval p_flags = nullptr;  ///< `flagged` only, from p
  void (*longest_runs)(const std::uint64_t* p, int n, int stride, int w0,
                       std::uint64_t* r, int* runs) = nullptr;
  void (*transpose64)(std::uint64_t* t) = nullptr;
  void (*fill)(std::uint64_t* state, std::uint64_t* out,
               std::size_t m) = nullptr;
};

template <class Word>
const Kernels* make_kernels() {
  static const Kernels table{Word::kWords,
                             &kernel_eval<Word, EvalMode::kAll>,
                             &kernel_eval<Word, EvalMode::kFlags>,
                             &kernel_eval<Word, EvalMode::kP>,
                             &kernel_longest_runs<Word>,
                             &kernel_transpose64<Word>,
                             &kernel_fill<Word>};
  return &table;
}

// One accessor per ISA tier.  The scalar table always exists
// (batch_engine.cpp); the SIMD ones return nullptr when their
// translation unit was compiled without the instruction set
// (batch_engine_avx2.cpp / batch_engine_avx512.cpp, gated in
// src/sim/CMakeLists.txt on compiler support).
const Kernels* scalar_kernels();
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();

/// Dispatch resolution (isa.cpp): widest tier <= `requested` that is
/// supported on this machine and whose group divides `words`.  Never
/// null — scalar (group 1) always qualifies.
const Kernels* kernels_for(Isa requested, int words);

}  // namespace vlsa::sim::detail
