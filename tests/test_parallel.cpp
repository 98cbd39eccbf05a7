// The parallel substrate: RNG substreams, the thread pool, and the
// reproducibility contract of the batch Monte-Carlo driver — same seed
// must mean bit-identical tallies no matter how many threads ran — plus
// the thread safety of SpeculativeAdder's statistics counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/aca.hpp"
#include "sim/batch_engine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads/batch_monte_carlo.hpp"

namespace vlsa {
namespace {

using core::SpeculativeAdder;
using util::Rng;
using util::ThreadPool;
using workloads::BatchMcConfig;
using workloads::run_batch_monte_carlo;

TEST(RngSplit, IsDeterministicAndLeavesParentUntouched) {
  Rng parent(42);
  Rng control(42);

  Rng child_a = parent.split(7);
  Rng child_b = parent.split(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child_a.next_u64(), child_b.next_u64());
  }

  // split is const: the parent's own sequence is exactly what it would
  // have been without any splitting.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(parent.next_u64(), control.next_u64());
  }
}

TEST(RngSplit, DistinctStreamsAndDistinctParentsDiverge) {
  Rng parent(42);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t stream = 0; stream < 256; ++stream) {
    firsts.insert(parent.split(stream).next_u64());
  }
  // All 256 substreams start differently (a collision here would mean
  // shards silently sharing operands).
  EXPECT_EQ(firsts.size(), 256u);

  // The substream depends on the parent state, not just the index.
  Rng other(43);
  EXPECT_NE(parent.split(0).next_u64(), other.split(0).next_u64());
}

TEST(RngSplit, ChildIsNotAPrefixOfTheParentStream) {
  Rng parent(1234);
  Rng child = parent.split(0);
  Rng control(1234);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    any_diff = any_diff || (child.next_u64() != control.next_u64());
  }
  EXPECT_TRUE(any_diff);
}

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::atomic<int>> seen(100);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count, &seen, i] {
      seen[i].fetch_add(1);
      count.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(ThreadPool, WaitIdleRethrowsFirstJobException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1);
      if (i == 4) throw std::runtime_error("job 4 failed");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);  // the failure does not cancel other jobs
  // The pool is reusable after an error.
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 11);
}

TEST(ParallelForShards, CoversAllShardsOnAnyThreadCount) {
  for (int threads : {1, 2, 13}) {
    std::vector<std::atomic<int>> hits(57);
    util::parallel_for_shards(57, threads,
                              [&](int shard) { hits[shard].fetch_add(1); });
    for (int s = 0; s < 57; ++s) {
      ASSERT_EQ(hits[s].load(), 1) << "threads=" << threads << " s=" << s;
    }
  }
}

TEST(BatchMonteCarlo, TalliesAreIdenticalAcrossThreadCounts) {
  // Several shards' worth of work (2^17 trials/shard) so the schedule
  // actually interleaves, small enough to run three times.  Lanes are
  // pinned so the shard count doesn't depend on the machine's SIMD
  // tier (the lane count is part of the stream; the thread count must
  // not be).
  BatchMcConfig config;
  config.width = 64;
  config.window = 6;
  config.trials = 600'000;
  config.seed = 0xabcdef;
  config.threads = 1;
  config.lanes = 64;
  const auto base = run_batch_monte_carlo(config);
  EXPECT_GE(base.tally.trials, config.trials);
  EXPECT_EQ(base.shards, 5);

  for (int threads : {4, 13}) {
    config.threads = threads;
    const auto got = run_batch_monte_carlo(config);
    EXPECT_EQ(got.tally.trials, base.tally.trials) << threads;
    EXPECT_EQ(got.tally.flagged, base.tally.flagged) << threads;
    EXPECT_EQ(got.tally.wrong, base.tally.wrong) << threads;
    EXPECT_EQ(got.tally.run_histogram, base.tally.run_histogram) << threads;
  }
}

// FNV-1a over the run histogram: one number pins every bucket.
std::uint64_t histogram_digest(const std::vector<long long>& histogram) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const long long count : histogram) {
    h = (h ^ static_cast<std::uint64_t>(count)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(BatchMonteCarlo, GoldenTalliesAreBitIdentical) {
  // Tallies recorded when the driver began drawing p first from eight
  // interleaved generator states (workloads/batch_monte_carlo.hpp), and
  // checked then against the full kernel on every batch (the replay
  // test below), the exact flag and error probabilities (|z| < 2) and
  // every tier and thread count.  Any kernel, generator or sharding
  // change must reproduce them exactly, on every ISA tier: the lane
  // count is pinned, so the stream is too.  The grid covers 64/256/512
  // lanes, addition and subtraction, and windows both below and above
  // log2 n (k = 23 at width 1024 is the shipped service configuration).
  // The two 64-bit cases share a p stream, so they share a digest.
  struct Golden {
    int width, window, lanes;
    bool subtract;
    long long flagged, wrong;
    std::uint64_t runs_digest;
  };
  const Golden cases[] = {
      {333, 6, 512, false, 244674, 191590, 9355210836630408425ULL},
      {1024, 10, 512, false, 102576, 57700, 17843386316069101273ULL},
      {256, 8, 256, true, 102515, 57778, 11728259872698861149ULL},
      {64, 3, 64, false, 260713, 231651, 9674280156621162011ULL},
      {64, 10, 64, true, 7182, 3751, 9674280156621162011ULL},
      {1024, 23, 256, false, 22, 9, 11878173489067364927ULL},
      {100, 12, 512, true, 2795, 1470, 6498032592301295179ULL},
  };
  for (const Golden& g : cases) {
    BatchMcConfig config;
    config.width = g.width;
    config.window = g.window;
    config.lanes = g.lanes;
    config.subtract = g.subtract;
    config.trials = 1 << 18;
    config.seed = 0xfeed;
    config.threads = 2;
    const auto got = run_batch_monte_carlo(config);
    const auto& t = got.tally;
    EXPECT_EQ(t.trials, 1 << 18);
    EXPECT_EQ(t.flagged, g.flagged)
        << "n=" << g.width << " k=" << g.window << " lanes=" << g.lanes;
    EXPECT_EQ(t.wrong, g.wrong)
        << "n=" << g.width << " k=" << g.window << " lanes=" << g.lanes;
    EXPECT_EQ(histogram_digest(t.run_histogram), g.runs_digest)
        << "n=" << g.width << " k=" << g.window << " lanes=" << g.lanes;
  }
}

/// The driver's tally recomputed from its documented streams
/// (workloads/batch_monte_carlo.hpp) with no batch skipped: shard s of
/// 2^17 / lanes batches draws p from LaneRng(Rng(seed).split(s).split(0))
/// and, on a batch in which some lane has a run of at least k ones in p,
/// a from LaneRng(Rng(seed).split(s).split(1)).  Every other batch gets
/// an `a` from an unrelated generator.  Returns (a, b = a ^ p), whose
/// propagate runs are the runs of p.
sim::WideBatch replay_batch(sim::LaneRng& p_stream, sim::LaneRng& a_stream,
                            Rng& unrelated, const BatchMcConfig& config,
                            bool& drew_a) {
  sim::WideBatch batch(config.width, config.lanes);
  std::vector<std::uint64_t> p(batch.a.size());
  p_stream.fill(p);
  batch.b = p;  // a = 0 for now: the runs of (0, p) are the runs of p
  const auto runs = sim::wide_longest_runs(batch);
  drew_a = std::any_of(runs.begin(), runs.end(),
                       [&](int run) { return run >= config.window; });
  if (drew_a) {
    a_stream.fill(batch.a);
  } else {
    for (auto& word : batch.a) word = unrelated.next_u64();
  }
  for (std::size_t j = 0; j < p.size(); ++j) batch.b[j] = batch.a[j] ^ p[j];
  return batch;
}

TEST(BatchMonteCarlo, ReplayingTheDocumentedStreamsGivesTheTallies) {
  // Skipping the carries on a batch with no flag is exact: the full
  // flags-only kernel finds no wrong lane there, and the replayed
  // tallies, run histogram included, equal the driver's.  64/3 flags
  // nearly every batch; 1024/23 flags few (two shards at 512 lanes);
  // one subtraction case.
  struct Case {
    int width, window, lanes;
    bool subtract;
  };
  for (const Case c : {Case{64, 3, 64, false}, Case{1024, 23, 512, false},
                       Case{256, 8, 256, true}}) {
    BatchMcConfig config;
    config.width = c.width;
    config.window = c.window;
    config.lanes = c.lanes;
    config.subtract = c.subtract;
    config.trials = 1 << 18;
    config.seed = 0x5eed5;
    config.threads = 2;
    const auto got = run_batch_monte_carlo(config);
    ASSERT_EQ(got.shards, 2);

    workloads::BatchMcTally want;
    want.run_histogram.assign(static_cast<std::size_t>(c.width) + 1, 0);
    long long drawn = 0;
    Rng unrelated(0xdead);
    const Rng master(config.seed);
    const long long shard_batches = (1LL << 17) / c.lanes;
    for (int shard = 0; shard < got.shards; ++shard) {
      const Rng rng = master.split(static_cast<std::uint64_t>(shard));
      sim::LaneRng p_stream(rng.split(0));
      sim::LaneRng a_stream(rng.split(1));
      for (long long i = 0; i < shard_batches; ++i) {
        bool drew_a = false;
        const auto batch =
            replay_batch(p_stream, a_stream, unrelated, config, drew_a);
        // The full flags-only kernel, on (a, ~(a ^ p)) for a subtraction,
        // whose propagate signal a ^ ~b is p.
        sim::WideBatch ops = batch;
        if (c.subtract) {
          for (auto& word : ops.b) word = ~word;
        }
        sim::WideResult flags;
        sim::wide_aca_flags_into(ops, c.window, c.subtract, flags);
        long long flagged = 0, wrong = 0;
        for (const std::uint64_t m : flags.flagged) flagged += std::popcount(m);
        for (const std::uint64_t m : flags.wrong) wrong += std::popcount(m);
        ASSERT_EQ(flagged != 0, drew_a) << "shard " << shard << " batch " << i;
        ASSERT_TRUE(drew_a || wrong == 0) << "shard " << shard << " batch " << i;
        want.trials += c.lanes;
        want.flagged += flagged;
        want.wrong += wrong;
        drawn += drew_a ? 1 : 0;
        for (const int run : sim::wide_longest_runs(batch)) {
          want.run_histogram[static_cast<std::size_t>(run)] += 1;
        }
      }
    }
    SCOPED_TRACE("n=" + std::to_string(c.width) + " k=" +
                 std::to_string(c.window) + " drew a in " +
                 std::to_string(drawn) + " batches");
    EXPECT_GT(drawn, 0);
    EXPECT_EQ(got.tally.trials, want.trials);
    EXPECT_EQ(got.tally.flagged, want.flagged);
    EXPECT_EQ(got.tally.wrong, want.wrong);
    EXPECT_EQ(got.tally.run_histogram, want.run_histogram);
  }
}

TEST(BatchMonteCarlo, TalliesAreInternallyConsistent) {
  BatchMcConfig config;
  config.width = 32;
  config.window = 4;
  config.trials = 100'000;
  config.threads = 2;
  const auto got = run_batch_monte_carlo(config);

  // Soundness per tally: a wrong sum implies a flag.
  EXPECT_LE(got.tally.wrong, got.tally.flagged);
  EXPECT_LE(got.tally.flagged, got.tally.trials);

  // The run histogram partitions the trials, and every trial with a
  // chain >= k must be exactly the flagged count.
  long long histogram_total = 0, chains_ge_k = 0;
  for (std::size_t run = 0; run < got.tally.run_histogram.size(); ++run) {
    histogram_total += got.tally.run_histogram[run];
    if (static_cast<int>(run) >= config.window) {
      chains_ge_k += got.tally.run_histogram[run];
    }
  }
  EXPECT_EQ(histogram_total, got.tally.trials);
  EXPECT_EQ(chains_ge_k, got.tally.flagged);
}

TEST(BatchMonteCarlo, ExplicitLaneCountsAgreeStatistically) {
  // The lane count is part of the RNG stream, so wider runs are not
  // trial-for-trial identical to 64-lane ones — but the flag rate is an
  // estimate of the same probability (Eq. 2 of the paper) and must
  // agree within Monte-Carlo error.  The result also records which
  // lane count / ISA tier produced it (bench sidecar provenance).
  BatchMcConfig config;
  config.width = 64;
  config.window = 6;
  config.trials = 400'000;
  config.seed = 0x1a9e5;
  config.threads = 2;
  double rates[2];
  const int lane_options[2] = {64, 256};
  for (int i = 0; i < 2; ++i) {
    config.lanes = lane_options[i];
    const auto got = run_batch_monte_carlo(config);
    EXPECT_EQ(got.lanes, lane_options[i]);
    EXPECT_EQ(got.isa,
              sim::resolved_isa(sim::active_isa(), lane_options[i]));
    EXPECT_GE(got.tally.trials, config.trials);
    EXPECT_EQ(got.tally.trials % lane_options[i], 0);
    rates[i] = static_cast<double>(got.tally.flagged) /
               static_cast<double>(got.tally.trials);
  }
  // ER(64, 6) ~ 0.2; with 4e5 trials the standard error is ~6e-4.
  EXPECT_NEAR(rates[0], rates[1], 0.01);
}

TEST(BatchMonteCarlo, RejectsBadLaneCounts) {
  BatchMcConfig config;
  config.width = 8;
  config.trials = 1000;
  for (int lanes : {-64, 32, 96, 1024}) {
    config.lanes = lanes;
    EXPECT_THROW(run_batch_monte_carlo(config), std::invalid_argument)
        << lanes;
  }
}

TEST(BatchMonteCarlo, SubtractPathRuns) {
  BatchMcConfig config;
  config.width = 64;
  config.window = 8;
  config.trials = 64 * 100;
  config.subtract = true;
  config.collect_runs = false;
  config.lanes = 64;  // keep trials an exact multiple of the batch
  const auto got = run_batch_monte_carlo(config);
  EXPECT_EQ(got.tally.trials, config.trials);
  EXPECT_LE(got.tally.wrong, got.tally.flagged);
}

TEST(SpeculativeAdderConcurrency, CountersSurviveParallelHammering) {
  // 8 threads x 2000 additions on one shared adder: the relaxed-atomic
  // counters must neither lose nor invent increments, and the totals
  // must equal the sum of what each thread observed.
  SpeculativeAdder adder(64, 4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::atomic<long long> flagged_seen{0}, wrong_seen{0};

  util::parallel_for_shards(kThreads, kThreads, [&](int shard) {
    Rng rng = Rng(0xc0ffee).split(shard);
    long long flagged = 0, wrong = 0;
    for (int i = 0; i < kPerThread; ++i) {
      const auto out = adder.add(rng.next_bits(64), rng.next_bits(64));
      flagged += out.flagged;
      wrong += out.was_wrong;
    }
    flagged_seen.fetch_add(flagged);
    wrong_seen.fetch_add(wrong);
  });

  EXPECT_EQ(adder.total_adds(), kThreads * kPerThread);
  EXPECT_EQ(adder.flagged_adds(), flagged_seen.load());
  EXPECT_EQ(adder.wrong_adds(), wrong_seen.load());
  EXPECT_LE(adder.wrong_adds(), adder.flagged_adds());
}

}  // namespace
}  // namespace vlsa
