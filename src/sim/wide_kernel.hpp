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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/isa.hpp"
#include "sim/lane_word.hpp"

namespace vlsa::sim::detail {

/// Output pointers for one kernel_eval call, all in the wide slice
/// layout described above (sum_spec is `n * stride` words, mask arrays
/// are `stride` words; the kernel touches only its group).  The
/// flags-only instantiation writes just `flagged` and `wrong`.
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
/// memory.  kAllOutputs = false writes only out.flagged and out.wrong.
template <class Word, bool kAllOutputs>
void kernel_eval(const std::uint64_t* a, const std::uint64_t* b, int n,
                 int stride, int w0, int k, bool subtract,
                 const std::uint64_t* carry_in, std::uint64_t* suffix,
                 const EvalOut& out) {
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
      const Word bv = Word::load(b + at) ^ flip;
      const Word p = av ^ bv;
      prefix = prefix & p;
      const Word run = Word::load(suffix + (j + 1) * G) & prefix;
      p.store(suffix + j * G);
      if constexpr (kAllOutputs) (p ^ cs).store(out.sum_spec + at);
      ce = (av & bv) | (p & ce);
      const Word miss = ce & run;
      if constexpr (kAllOutputs) cs = ce ^ miss;
      flagged = flagged | run;
      wrong = wrong | miss;
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
  wrong.store(out.wrong + w0);
}

/// Per-lane longest propagate chain for one group; `runs` receives
/// 64 * Word::kWords entries (lane order within the group).  Extend one
/// bit per round; a lane's longest run is the last t it survived.
template <class Word>
void kernel_longest_runs(const std::uint64_t* a, const std::uint64_t* b,
                         int n, int stride, int w0, int* runs) {
  std::vector<Word> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    p[i] = Word::load(a + static_cast<std::size_t>(i) * stride + w0) ^
           Word::load(b + static_cast<std::size_t>(i) * stride + w0);
  }
  std::fill(runs, runs + 64 * Word::kWords, 0);
  std::vector<Word> r = p;  // r[i]: lanes whose run of length t ends at i
  std::uint64_t alive_words[Word::kWords];
  for (int t = 1; t <= n; ++t) {
    Word alive = Word::zero();
    for (int i = t - 1; i < n; ++i) alive = alive | r[i];
    alive.store(alive_words);
    bool any = false;
    for (int w = 0; w < Word::kWords; ++w) {
      std::uint64_t m = alive_words[w];
      any = any || m != 0;
      while (m != 0) {
        runs[w * 64 + std::countr_zero(m)] = t;
        m &= m - 1;
      }
    }
    if (!any) break;
    for (int i = n - 1; i >= 1; --i) r[i] = r[i - 1] & p[i];
    r[0] = Word::zero();
  }
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
  Eval eval = nullptr;   ///< every output
  Eval flags = nullptr;  ///< `flagged` and `wrong` only
  void (*longest_runs)(const std::uint64_t* a, const std::uint64_t* b, int n,
                       int stride, int w0, int* runs) = nullptr;
  void (*transpose64)(std::uint64_t* t) = nullptr;
};

template <class Word>
const Kernels* make_kernels() {
  static const Kernels table{Word::kWords, &kernel_eval<Word, true>,
                             &kernel_eval<Word, false>,
                             &kernel_longest_runs<Word>,
                             &kernel_transpose64<Word>};
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
