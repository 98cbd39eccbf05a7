#pragma once
// Multithreaded Monte-Carlo driver over the bit-sliced batch engine.
//
// Trials are split into shards of 2^17 (2^17 / lanes batches, rounded
// down); shard s draws from the substream `Rng(seed).split(s)` and
// accumulates a private tally, and the per-shard tallies are reduced
// in shard order after the pool drains.
//
// Each batch draws the propagate signal p = a ^ b first, not a and b:
// for uniform operands (a, b) and (a, p) have the same distribution,
// and the ER flag and the longest run read p alone (docs/theory.md
// §4).  p comes from `sim::LaneRng(shard.split(0))`, eight interleaved
// xoshiro256** states stepped in SIMD registers, and every batch
// takes `flagged` and the run lengths from it.  Only a batch in which
// some lane flagged needs the carries, because only a flagged lane
// can be wrong: it draws `a` from a second stream,
// `sim::LaneRng(shard.split(1))`, sets b = a ^ p (b = ~(a ^ p) for
// a - b, whose propagate signal is a ^ ~b) and counts `wrong` with
// sim::wide_aca_flags_into.  At width 1024, k = 23 about 3% of
// 512-lane batches go that far.
//
// Both the shard layout and the streams depend only on (trials, seed,
// lanes) — never on the thread count or the ISA tier — so the same
// configuration produces bit-identical tallies on 1, 4, or 13 threads
// and under every VLSA_FORCE_ISA (tests/test_parallel.cpp pins this
// down).  Threads only change the wall clock.  The lane count (batch
// width drawn per step) *is* part of the stream: a 512-lane run is
// distribution-identical but not trial-for-trial identical to a
// 64-lane run, so pin `lanes` explicitly when a tally must be
// reproduced across machines with different SIMD tiers.

#include <cstdint>
#include <vector>

#include "sim/isa.hpp"
#include "util/rng.hpp"

namespace vlsa::workloads {

struct BatchMcConfig {
  int width = 64;       ///< operand bits (n)
  int window = 4;       ///< speculation window (k)
  long long trials = 1 << 20;  ///< rounded up to a whole number of batches
  std::uint64_t seed = 0x5eedULL;
  int threads = 1;      ///< worker threads; does not affect the tallies
  bool collect_runs = true;  ///< longest-propagate-run histogram (Table 1)
  bool subtract = false;     ///< exercise the a - b (carry-in = 1) path
  /// Lanes per engine batch: a multiple of 64 in [64, 512], or 0 (the
  /// default) for the detected SIMD lane width (sim::active_lanes()).
  /// Part of the RNG stream — see the file comment.
  int lanes = 0;
};

/// Integer tallies — everything needed for flag/error rates and the
/// longest-run distribution.  Addition of tallies is associative and
/// commutative, but the driver still reduces in shard order so any
/// future non-commutative statistic stays reproducible.
struct BatchMcTally {
  long long trials = 0;
  long long flagged = 0;   ///< ER fired
  long long wrong = 0;     ///< speculative sum != exact sum
  std::vector<long long> run_histogram;  ///< [chain length] -> count;
                                         ///< size width+1 when collected

  void merge(const BatchMcTally& other);
};

struct BatchMcResult {
  BatchMcTally tally;
  int shards = 0;
  int threads = 0;
  int lanes = 0;  ///< lanes per batch the run actually used
  /// Kernel tier the batches resolved to (provenance for sidecars).
  sim::Isa isa = sim::Isa::Scalar;
  double seconds = 0.0;
  double trials_per_sec = 0.0;

  double flag_rate() const;
  double error_rate() const;
};

/// Run the configured experiment.  `trials` is rounded up to a multiple
/// of the lane count; the returned tally reports the actual count.
BatchMcResult run_batch_monte_carlo(const BatchMcConfig& config);

}  // namespace vlsa::workloads
