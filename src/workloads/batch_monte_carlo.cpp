#include "workloads/batch_monte_carlo.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

#include "sim/batch_engine.hpp"
#include "util/parallel.hpp"

namespace vlsa::workloads {

namespace {

// Shard granularity: 512 batches per shard (512 * lanes trials).
// Fixed (not derived from the thread count) so the shard -> substream
// mapping, and with it every tally, is identical at any parallelism.
constexpr long long kBatchesPerShard = 512;

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
  const long long batches = (config.trials + lanes - 1) / lanes;
  const int shards =
      static_cast<int>((batches + kBatchesPerShard - 1) / kBatchesPerShard);
  const util::Rng master(config.seed);

  std::vector<BatchMcTally> partial(shards);
  const auto t0 = std::chrono::steady_clock::now();
  util::parallel_for_shards(shards, config.threads, [&](int shard) {
    util::Rng rng = master.split(static_cast<std::uint64_t>(shard));
    const long long first_batch = shard * kBatchesPerShard;
    const long long n_batches =
        std::min(kBatchesPerShard, batches - first_batch);

    BatchMcTally& tally = partial[shard];
    if (config.collect_runs) {
      tally.run_histogram.assign(config.width + 1, 0);
    }
    sim::WideBatch batch(config.width, lanes);
    sim::WideResult result;
    for (long long i = 0; i < n_batches; ++i) {
      sim::fill_uniform(rng, batch);
      sim::wide_aca_flags_into(batch, config.window, config.subtract, result);
      tally.trials += lanes;
      for (const std::uint64_t m : result.flagged) {
        tally.flagged += std::popcount(m);
      }
      for (const std::uint64_t m : result.wrong) {
        tally.wrong += std::popcount(m);
      }
      if (config.collect_runs) {
        const auto runs = sim::wide_longest_runs(batch);
        for (int run : runs) tally.run_histogram[run] += 1;
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
