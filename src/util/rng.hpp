#pragma once
// Deterministic, fast random number generation for workloads and tests.
//
// We use xoshiro256** rather than std::mt19937_64: it is faster, has a
// tiny state, and — importantly for reproducibility — its output is fully
// specified here, independent of the standard library implementation.

#include <array>
#include <cstdint>

#include "util/bitvec.hpp"

namespace vlsa::util {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform value in [0, bound); bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p of returning true.
  bool next_bool(double p = 0.5);

  /// Uniform random bit vector of the given width.
  BitVec next_bits(int width);

  /// Derive an independent child generator for substream `stream` without
  /// touching this generator's sequence (const — a parent draws the same
  /// values whether or not it was split, and splitting twice with the
  /// same index yields identical children).
  ///
  /// Substream spec (frozen: sharded Monte-Carlo tallies are only
  /// reproducible across thread counts if every shard derives its RNG the
  /// same way forever):
  ///
  ///   child = Rng(sm(sm(stream) ^ s0 ^ rotl(s1,17) ^ rotl(s2,31)
  ///                             ^ rotl(s3,47)))
  ///
  /// where `s0..s3` is this generator's current xoshiro state, `sm(x)` is
  /// one splitmix64 step (add the golden-gamma 0x9e3779b97f4a7c15, then
  /// the 30/27/31 xor-multiply finalizer), and the Rng constructor expands
  /// the 64-bit seed through four further splitmix64 steps.  Distinct
  /// stream indices therefore land in unrelated regions of seed space,
  /// and a shard's stream depends only on (master seed, shard index).
  Rng split(std::uint64_t stream) const;

  /// The xoshiro256** state s0..s3: next_u64() returns
  /// rotl(s1 * 5, 7) * 9 and then advances it.  Generators that step
  /// copies of it elsewhere (sim::LaneRng) start from here.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

 private:
  std::uint64_t state_[4] = {};
};

}  // namespace vlsa::util
