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
// One exact-carry pass plus the k-propagate run mask R_k gives every
// output (docs/theory.md §4): the speculative carry is the exact carry
// except where a run of k propagates ends, c_spec[i] = c_exact[i] &
// ~R_k[i].  R_k comes from AND-doubling over windows of length 1, 2,
// 4, ... (the sharing of the paper's Fig. 3/4), so a lane group costs
// O(n log k) word operations, not O(n·k).  The template only changes
// how many lanes one word step advances.  Differential tests pin every
// instantiation to the scalar model (tests/test_batch_engine.cpp); the
// identity itself is proved at gate level (tests/test_formal.cpp,
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
/// are `stride` words; the kernel touches only its group).
struct EvalOut {
  std::uint64_t* sum_spec = nullptr;
  std::uint64_t* carry_out_spec = nullptr;
  std::uint64_t* carry_out_exact = nullptr;
  std::uint64_t* flagged = nullptr;
  std::uint64_t* wrong = nullptr;
};

/// The run mask R_k of one group into `r` (n * kWords words, bit i at
/// r + i * kWords): lane j of R_k[i] is set iff lane j's propagate bits
/// [i-k+1 .. i] are all 1.  Starts from p and doubles the run length in
/// place; zeros shift in from below, so R_k[i] = 0 for i < k-1 (and for
/// every i when k > n).  OR over i is exactly the scalar ER flag.
template <class Word>
void kernel_run_mask(const std::uint64_t* a, const std::uint64_t* b, int n,
                     int stride, int w0, int k, std::uint64_t* r) {
  constexpr int G = Word::kWords;
  for (int i = 0; i < n; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * stride + w0;
    (Word::load(a + at) ^ Word::load(b + at)).store(r + i * G);
  }
  for (int t = 1; t < k;) {
    const int s = std::min(t, k - t);
    // Descending i so r[i - s] still holds the length-t run.
    for (int i = n - 1; i >= s; --i) {
      (Word::load(r + i * G) & Word::load(r + (i - s) * G)).store(r + i * G);
    }
    std::fill(r, r + std::min(s, n) * G, std::uint64_t{0});
    t += s;
  }
}

/// Full evaluation of ACA(n, k) on one lane group, checked against the
/// exact carry chain.  `carry_in` is a lane-mask base pointer (nullptr
/// = no carry in);
/// `r` is n * kWords words of working memory for the run mask.
template <class Word>
void kernel_eval(const std::uint64_t* a, const std::uint64_t* b, int n,
                 int stride, int w0, int k, const std::uint64_t* carry_in,
                 std::uint64_t* r, const EvalOut& out) {
  constexpr int G = Word::kWords;
  kernel_run_mask<Word>(a, b, n, stride, w0, k, r);
  // Exact ripple, c_e[i] = g_i | (p_i & c_e[i-1]) with c_e[-1] = carry
  // in, and c_s[i] = c_e[i] & ~R_k[i]: a window that is all propagates
  // speculates 0, any other window sees the exact carry.  R_k is 0 for
  // i < k-1, so the short windows at the bottom keep the carry-in.
  // A lane is wrong iff some carry differs, i.e. c_e & R_k somewhere.
  const Word cin =
      carry_in == nullptr ? Word::zero() : Word::load(carry_in + w0);
  Word ce = cin;
  Word cs = cin;
  Word flagged = Word::zero();
  Word wrong = Word::zero();
  for (int i = 0; i < n; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * stride + w0;
    const Word av = Word::load(a + at);
    const Word bv = Word::load(b + at);
    const Word p = av ^ bv;
    (p ^ cs).store(out.sum_spec + at);
    ce = (av & bv) | (p & ce);
    const Word run = Word::load(r + i * G);
    const Word miss = ce & run;
    cs = ce ^ miss;
    flagged = flagged | run;
    wrong = wrong | miss;
  }
  cs.store(out.carry_out_spec + w0);
  ce.store(out.carry_out_exact + w0);
  flagged.store(out.flagged + w0);
  wrong.store(out.wrong + w0);
}

/// Just the ER lane mask for one group (matches scalar `aca_flag`).
template <class Word>
void kernel_flag_only(const std::uint64_t* a, const std::uint64_t* b, int n,
                      int stride, int w0, int k, std::uint64_t* r,
                      std::uint64_t* flagged) {
  constexpr int G = Word::kWords;
  kernel_run_mask<Word>(a, b, n, stride, w0, k, r);
  Word any = Word::zero();
  for (int i = 0; i < n; ++i) any = any | Word::load(r + i * G);
  any.store(flagged + w0);
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
/// group, so the service's pack/unpack paths feed this directly.  All
/// 384 word operations of the scalar transpose become 384 vector
/// operations covering 4 or 8 blocks — the transpose was the dominant
/// non-scaling cost of a wide dispatch before this.
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
  int group_words = 1;
  void (*eval)(const std::uint64_t* a, const std::uint64_t* b, int n,
               int stride, int w0, int k, const std::uint64_t* carry_in,
               std::uint64_t* r, const EvalOut& out) = nullptr;
  void (*flag_only)(const std::uint64_t* a, const std::uint64_t* b, int n,
                    int stride, int w0, int k, std::uint64_t* r,
                    std::uint64_t* flagged) = nullptr;
  void (*longest_runs)(const std::uint64_t* a, const std::uint64_t* b, int n,
                       int stride, int w0, int* runs) = nullptr;
  void (*transpose64)(std::uint64_t* t) = nullptr;
};

template <class Word>
const Kernels* make_kernels() {
  static const Kernels table{Word::kWords, &kernel_eval<Word>,
                             &kernel_flag_only<Word>,
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
