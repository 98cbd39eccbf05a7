#include "workloads/batch_monte_carlo.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "sim/batch_engine.hpp"
#include "util/parallel.hpp"

namespace vlsa::workloads {

namespace {

// Shard granularity: 2^17 trials, 2^17 / lanes batches.  Fixed (not
// derived from the thread count) so the shard -> substream mapping, and
// with it every tally, is identical at any parallelism.
constexpr long long kShardTrials = 1LL << 17;

}  // namespace

void BatchMcTally::merge(const BatchMcTally& other) {
  trials += other.trials;
  flagged += other.flagged;
  wrong += other.wrong;
  if (run_histogram.size() < other.run_histogram.size()) {
    run_histogram.resize(other.run_histogram.size(), 0);
  }
  for (std::size_t i = 0; i < other.run_histogram.size(); ++i) {
    run_histogram[i] += other.run_histogram[i];
  }
}

double BatchMcResult::flag_rate() const {
  return tally.trials == 0
             ? 0.0
             : static_cast<double>(tally.flagged) / tally.trials;
}

double BatchMcResult::error_rate() const {
  return tally.trials == 0 ? 0.0
                           : static_cast<double>(tally.wrong) / tally.trials;
}

BatchMcResult run_batch_monte_carlo(const BatchMcConfig& config) {
  if (config.width < 1 || config.window < 1) {
    throw std::invalid_argument("batch Monte-Carlo: bad width/window");
  }
  if (config.trials < 1) {
    throw std::invalid_argument("batch Monte-Carlo: need at least 1 trial");
  }
  if (config.threads < 1) {
    throw std::invalid_argument("batch Monte-Carlo: need at least 1 thread");
  }
  if (config.lanes != 0 &&
      (config.lanes < 64 || config.lanes > sim::kMaxBatchLanes ||
       config.lanes % 64 != 0)) {
    throw std::invalid_argument(
        "batch Monte-Carlo: lanes must be 0 or a multiple of 64 in "
        "[64, 512]");
  }

  const int lanes = config.lanes == 0 ? sim::active_lanes() : config.lanes;
  const int width = config.width;
  const long long batches = (config.trials + lanes - 1) / lanes;
  const long long shard_batches = kShardTrials / lanes;
  const int shards =
      static_cast<int>((batches + shard_batches - 1) / shard_batches);
  const util::Rng master(config.seed);
  const std::uint64_t flip = config.subtract ? ~std::uint64_t{0} : 0;

  std::vector<BatchMcTally> partial(shards);
  const auto t0 = std::chrono::steady_clock::now();
  util::parallel_for_shards(shards, config.threads, [&](int shard) {
    const util::Rng rng = master.split(static_cast<std::uint64_t>(shard));
    sim::LaneRng p_stream(rng.split(0));
    sim::LaneRng a_stream(rng.split(1));
    const long long first_batch = shard * shard_batches;
    const long long n_batches =
        std::min(shard_batches, batches - first_batch);

    BatchMcTally& tally = partial[shard];
    if (config.collect_runs) tally.run_histogram.assign(width + 1, 0);
    // Every fill overwrites all of p, so it is not zeroed first; the
    // operand pair is allocated only once some batch flags.
    const std::size_t words =
        static_cast<std::size_t>(width) * static_cast<std::size_t>(lanes / 64);
    const auto p_buf = std::make_unique_for_overwrite<std::uint64_t[]>(words);
    const std::span<std::uint64_t> p(p_buf.get(), words);
    std::optional<sim::WideBatch> batch;
    sim::WideResult flags, result;
    std::vector<int> runs;
    std::vector<std::uint64_t> run_scratch;
    for (long long i = 0; i < n_batches; ++i) {
      p_stream.fill(p);
      sim::wide_propagate_flags_into(p, width, lanes, config.window, flags);
      long long flagged = 0;
      for (const std::uint64_t m : flags.flagged) flagged += std::popcount(m);
      tally.trials += lanes;
      tally.flagged += flagged;
      if (flagged != 0) {
        // Only a flagged lane can be wrong (docs/theory.md §4), so only
        // here are the carries needed: draw a and set b so that the
        // kernel's propagate signal, a ^ b or a ^ ~b, is p.
        if (!batch) batch.emplace(width, lanes);
        a_stream.fill(batch->a);
        for (std::size_t j = 0; j < words; ++j) {
          batch->b[j] = batch->a[j] ^ p[j] ^ flip;
        }
        sim::wide_aca_flags_into(*batch, config.window, config.subtract,
                                 result);
        for (const std::uint64_t m : result.wrong) {
          tally.wrong += std::popcount(m);
        }
      }
      if (config.collect_runs) {
        sim::wide_propagate_runs_into(p, width, lanes, runs, run_scratch);
        for (const int run : runs) tally.run_histogram[run] += 1;
      }
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  BatchMcResult out;
  out.shards = shards;
  out.threads = config.threads;
  out.lanes = lanes;
  out.isa = sim::resolved_isa(sim::active_isa(), lanes);
  for (const auto& tally : partial) out.tally.merge(tally);
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.trials_per_sec =
      out.seconds > 0.0 ? out.tally.trials / out.seconds : 0.0;
  return out;
}

}  // namespace vlsa::workloads
