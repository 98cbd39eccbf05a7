#pragma once
// LaneWord — the machine word the bit-sliced kernels are generic over.
//
// A LaneWord is a flat vector of 64 * kWords one-bit lanes.  Because
// every signal in the ACA (propagate/generate, both carry chains, the
// ER flag, the mispredict mask) is a boolean recurrence across *bit
// positions*, lanes never interact within a word: widening the word
// widens the batch with zero algorithmic change.  The kernels in
// wide_kernel.hpp require exactly this interface:
//
//   static constexpr int kWords;           // 64-bit words per LaneWord
//   static W load(const std::uint64_t*);   // unaligned
//   void store(std::uint64_t*) const;      // unaligned
//   static W zero();
//   static W splat(std::uint64_t);         // same value in every word
//   W.shl(j), W.shr(j)                     // logical shift per 64-bit word
//   W.rotl(j)                              // rotate per 64-bit word
//   W & W, W | W, W ^ W                    // lane-wise boolean algebra
//   W + W                                  // add per 64-bit word (mod 2^64)
//
// The shifts and splat exist for the block transpose (64x64 bit-matrix
// transpose of kWords independent blocks at once — see
// wide_kernel.hpp:kernel_transpose64); the boolean ops carry the adder
// recurrences.  The left shift, the rotate and the add also step kWords
// xoshiro256** generators side by side, one per 64-bit word
// (wide_kernel.hpp: XoshiroLanes).
//
// Three models ship: ScalarWord (uint64_t, 64 lanes, always available),
// Avx2Word (__m256i, 256 lanes) and Avx512Word (__m512i, 512 lanes).
// The SIMD types are only defined in translation units compiled with
// the matching -m flags (batch_engine_avx2.cpp / batch_engine_avx512.cpp);
// everything else sees only ScalarWord, so no AVX type ever leaks into
// code the CPU might run without the feature.

#include <bit>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace vlsa::sim::detail {

/// 64 lanes in a plain machine word — the portable fallback and the
/// kernel every other implementation is differentially tested against.
struct ScalarWord {
  static constexpr int kWords = 1;

  std::uint64_t v;

  static ScalarWord load(const std::uint64_t* p) { return {*p}; }
  void store(std::uint64_t* p) const { *p = v; }
  static ScalarWord zero() { return {0}; }
  static ScalarWord splat(std::uint64_t x) { return {x}; }
  ScalarWord shl(int j) const { return {v << j}; }
  ScalarWord shr(int j) const { return {v >> j}; }
  ScalarWord rotl(int j) const { return {std::rotl(v, j)}; }

  friend ScalarWord operator&(ScalarWord x, ScalarWord y) {
    return {x.v & y.v};
  }
  friend ScalarWord operator|(ScalarWord x, ScalarWord y) {
    return {x.v | y.v};
  }
  friend ScalarWord operator^(ScalarWord x, ScalarWord y) {
    return {x.v ^ y.v};
  }
  friend ScalarWord operator+(ScalarWord x, ScalarWord y) {
    return {x.v + y.v};
  }
};

#if defined(__AVX2__)
/// 256 lanes per step.  Unaligned loads/stores: the slice buffers are
/// plain std::vector<uint64_t> with no alignment promise.
struct Avx2Word {
  static constexpr int kWords = 4;

  __m256i v;

  static Avx2Word load(const std::uint64_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint64_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Avx2Word zero() { return {_mm256_setzero_si256()}; }
  static Avx2Word splat(std::uint64_t x) {
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
  }
  // GNU vector-extension shifts: a constant count after inlining (the
  // generator's) becomes the immediate form of vpsllq / vpsrlq.
  Avx2Word shl(int j) const {
    using V = unsigned long long __attribute__((vector_size(32)));
    return {(__m256i)((V)v << j)};
  }
  Avx2Word shr(int j) const {
    using V = unsigned long long __attribute__((vector_size(32)));
    return {(__m256i)((V)v >> j)};
  }
  // AVX2 has no vector rotate: two shifts and an OR.
  Avx2Word rotl(int j) const {
    using V = unsigned long long __attribute__((vector_size(32)));
    return {(__m256i)(((V)v << j) | ((V)v >> (64 - j)))};
  }

  friend Avx2Word operator&(Avx2Word x, Avx2Word y) {
    return {_mm256_and_si256(x.v, y.v)};
  }
  friend Avx2Word operator|(Avx2Word x, Avx2Word y) {
    return {_mm256_or_si256(x.v, y.v)};
  }
  friend Avx2Word operator^(Avx2Word x, Avx2Word y) {
    return {_mm256_xor_si256(x.v, y.v)};
  }
  friend Avx2Word operator+(Avx2Word x, Avx2Word y) {
    return {_mm256_add_epi64(x.v, y.v)};
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// 512 lanes per step.
struct Avx512Word {
  static constexpr int kWords = 8;

  __m512i v;

  static Avx512Word load(const std::uint64_t* p) {
    return {_mm512_loadu_si512(reinterpret_cast<const void*>(p))};
  }
  void store(std::uint64_t* p) const {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static Avx512Word zero() { return {_mm512_setzero_si512()}; }
  static Avx512Word splat(std::uint64_t x) {
    return {_mm512_set1_epi64(static_cast<long long>(x))};
  }
  // GNU vector-extension shifts, rotate and add rather than intrinsics:
  // GCC 12 expands every unmasked AVX-512 shift or rotate intrinsic
  // through _mm512_undefined_epi32, which -Werror=uninitialized rejects
  // when inlined into user code (the strict preset).  Emits the same
  // vpsllq; the rotate, written with vector operators throughout (an
  // intrinsic OR hides the pattern), becomes one vprolq.
  Avx512Word shl(int j) const {
    using V = unsigned long long __attribute__((vector_size(64)));
    return {(__m512i)((V)v << j)};
  }
  Avx512Word shr(int j) const {
    using V = unsigned long long __attribute__((vector_size(64)));
    return {(__m512i)((V)v >> j)};
  }
  Avx512Word rotl(int j) const {
    using V = unsigned long long __attribute__((vector_size(64)));
    return {(__m512i)(((V)v << j) | ((V)v >> (64 - j)))};
  }

  friend Avx512Word operator&(Avx512Word x, Avx512Word y) {
    return {_mm512_and_si512(x.v, y.v)};
  }
  friend Avx512Word operator|(Avx512Word x, Avx512Word y) {
    return {_mm512_or_si512(x.v, y.v)};
  }
  friend Avx512Word operator^(Avx512Word x, Avx512Word y) {
    return {_mm512_xor_si512(x.v, y.v)};
  }
  friend Avx512Word operator+(Avx512Word x, Avx512Word y) {
    using V = unsigned long long __attribute__((vector_size(64)));
    return {(__m512i)((V)x.v + (V)y.v)};
  }
};
#endif  // __AVX512F__

}  // namespace vlsa::sim::detail
