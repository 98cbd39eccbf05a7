// mc_uniform: the Monte-Carlo error-rate engine at width 1024, k = 23,
// uniform operands, no run histogram (the error_rate / k_sweep
// configuration), 3 threads, default lanes.
//
// Measured in rounds like the service workloads (rounds_for):
//
//   setup_s          median of: window sizing + a one-batch call
//   throughput_rps   median trials per second of the quiet timed calls
//   unloaded_p50_us  median wall time of a one-batch call, over the
//                    quiet windows of one-batch calls (each window on
//                    the next vCPU)
//
// Checks: every call's tally has the requested trial count and
// wrong <= flagged <= trials; a same-seed repeat gives an identical
// tally; and the pooled flag and error rates of all calls agree with
// analysis::aca_flag_probability / aca_wrong_probability within
// kZBound standard errors.  No tally is pinned: lanes are part of the
// RNG stream and the default ISA may change.
#include <sched.h>

#include <cmath>

#include "analysis/aca_probability.hpp"
#include "bench.hpp"
#include "sim/isa.hpp"
#include "workloads/batch_monte_carlo.hpp"

namespace wallbench {

namespace {

using vlsa::workloads::BatchMcConfig;
using vlsa::workloads::BatchMcResult;

constexpr int kThreads = 3;
/// Trials per timed call: 2^22 is 32 shards of 512 batches at 256
/// lanes, so the last round leaves one of three threads idle for at
/// most one shard.
constexpr long long kCallTrials = 1LL << 22;
/// Share of --seconds spent in timed calls; the rest in one-batch calls.
constexpr double kThroughputShare = 0.8;
/// One-batch calls are grouped into windows of this length.
constexpr double kSubWindowS = 0.1;
/// Largest |z| accepted for the pooled flag and error rates.
constexpr double kZBound = 5.0;

constexpr std::uint64_t kSetupStream = 1'000'000;
constexpr std::uint64_t kSingleStream = 2'000'000;

struct Totals {
  long long trials = 0;
  long long flagged = 0;
  long long wrong = 0;
};

/// Moves the calling thread round the vCPUs it may run on, one per
/// call to next(), and restores its affinity when destroyed.  A
/// one-batch call runs inline on the caller, and per-vCPU speed on a
/// shared host drifts by tens of percent over seconds, so cycling
/// through every vCPU keeps one slow vCPU from setting the run's
/// figure.  Threads inherit affinity, so nothing may start a thread
/// pool while one of these is alive.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof original_, &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double z_score(long long observed, long long n, double p) {
  const double nn = static_cast<double>(n);
  const double sd = std::sqrt(nn * p * (1.0 - p));
  return sd > 0.0 ? (static_cast<double>(observed) - nn * p) / sd : 0.0;
}

}  // namespace

Report run_mc(const RunOptions& options) {
  Report report;
  Totals totals;
  int window = 0;
  auto call = [&](long long trials, std::uint64_t seed, double& wall_s) {
    BatchMcConfig config;
    config.width = kWidth;
    config.window = window;
    config.trials = trials;
    config.seed = seed;
    config.threads = kThreads;
    config.collect_runs = false;
    const auto t0 = Clock::now();
    BatchMcResult result = vlsa::workloads::run_batch_monte_carlo(config);
    wall_s = seconds_between(t0, Clock::now());
    const auto& t = result.tally;
    const long long lanes = result.lanes > 0 ? result.lanes : 1;
    const bool ok = t.trials == (trials + lanes - 1) / lanes * lanes &&
                    t.wrong >= 0 && t.wrong <= t.flagged &&
                    t.flagged <= t.trials;
    report.count(1, ok ? 0 : 1);
    if (ok) {
      totals.trials += t.trials;
      totals.flagged += t.flagged;
      totals.wrong += t.wrong;
    }
    return result;
  };

  const long long one_batch = vlsa::sim::active_lanes();
  const int rounds = rounds_for(options.seconds);
  const double timed_s = options.seconds * kThroughputShare / rounds;
  const double single_s = options.seconds * (1.0 - kThroughputShare) / rounds;
  std::vector<double> setup_s;
  std::vector<Window> call_windows, single_windows;
  ThreadGroupClock main_clock;
  double cpu_s = 0.0, vcs = 0.0, minflt = 0.0, phase_s = 0.0;
  double allocs_bench = 0.0, allocs_other = 0.0;
  long long timed_trials = 0;
  std::uint64_t next_call = 0, next_setup = 0, next_single = 0;
  BatchMcResult first;
  double wall_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (int s = 0; s < options.setups_per_round; ++s) {
      const auto t0 = Clock::now();
      window = vlsa::analysis::choose_window(kWidth, kMaxFlagProbability);
      call(one_batch, derive_seed(options.seed, kSetupStream + next_setup++),
           wall_s);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    // Timed calls.
    const Usage use0 = usage();
    const alloc::Counts allocs0 = alloc::counts();
    main_clock.start({this_tid()});
    const auto phase0 = Clock::now();
    do {
      const std::uint64_t i = next_call++;
      const double steal0 = steal_ticks();
      BatchMcResult result =
          call(kCallTrials, derive_seed(options.seed, i), wall_s);
      call_windows.push_back(
          {{static_cast<double>(result.tally.trials) / wall_s},
           steal_ticks() - steal0});
      timed_trials += result.tally.trials;
      if (i == 0) first = std::move(result);
    } while (seconds_between(phase0, Clock::now()) < timed_s);
    phase_s += seconds_between(phase0, Clock::now());
    main_clock.stop();
    const Usage use1 = usage();
    const alloc::Counts allocs1 = alloc::counts();
    cpu_s += use1.cpu_s - use0.cpu_s;
    vcs += use1.vcs - use0.vcs;
    minflt += use1.minflt - use0.minflt;
    allocs_bench += static_cast<double>(allocs1.bench - allocs0.bench);
    allocs_other += static_cast<double>(allocs1.other - allocs0.other);

    // One-batch calls, the engine's smallest request, in windows of
    // kSubWindowS, each window on the next vCPU.
    CpuRotation rotation;
    const auto single0 = Clock::now();
    while (seconds_between(single0, Clock::now()) < single_s) {
      rotation.next();
      Window w;
      const double steal0 = steal_ticks();
      const auto window0 = Clock::now();
      while (seconds_between(window0, Clock::now()) < kSubWindowS) {
        call(one_batch,
             derive_seed(options.seed, kSingleStream + next_single++),
             wall_s);
        w.samples.push_back(wall_s * 1e6);
      }
      w.steal = steal_ticks() - steal0;
      single_windows.push_back(std::move(w));
    }
  }
  std::vector<double> rates, single_us;
  for (const auto& w : call_windows) rates.push_back(w.samples[0]);
  for (const auto& w : single_windows) {
    single_us.insert(single_us.end(), w.samples.begin(), w.samples.end());
  }

  // Same seed, same tally.
  const BatchMcResult again =
      call(kCallTrials, derive_seed(options.seed, 0), wall_s);
  const bool repeat_ok = again.tally.trials == first.tally.trials &&
                         again.tally.flagged == first.tally.flagged &&
                         again.tally.wrong == first.tally.wrong;
  const double p_flag = vlsa::analysis::aca_flag_probability(kWidth, window);
  const double p_wrong = vlsa::analysis::aca_wrong_probability(kWidth, window);
  const double z_flag = z_score(totals.flagged, totals.trials, p_flag);
  const double z_wrong = z_score(totals.wrong, totals.trials, p_wrong);
  const bool flag_ok = std::abs(z_flag) <= kZBound;
  const bool wrong_ok = std::abs(z_wrong) <= kZBound;
  report.count(3, (repeat_ok ? 0 : 1) + (flag_ok ? 0 : 1) + (wrong_ok ? 0 : 1));

  const double throughput = quiet_median(call_windows);
  const double single_p50 = quiet_median(single_windows);
  report.e2e("throughput_rps", throughput, "1/s");
  report.e2e("unloaded_p50_us", single_p50, "us");
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("peak_rss_mb", usage().maxrss_mib, "MiB");
  report.detail.push_back({"unloaded_p99_us", quantile(single_us, 0.99), "us"});
  report.detail.push_back(
      {"unloaded_samples", static_cast<double>(single_us.size()), "count"});
  report.note("window k=" + std::to_string(window) + " lanes=" +
              std::to_string(one_batch) + " timed calls=" +
              std::to_string(rates.size()) + " of " +
              std::to_string(kCallTrials) + " trials, quiet=" +
              std::to_string(throughput) + " all p25=" +
              std::to_string(quantile(rates, 0.25)) +
              " p50=" + std::to_string(median(rates)) +
              " p75=" + std::to_string(quantile(rates, 0.75)));
  report.note("one-batch calls=" + std::to_string(single_us.size()) +
              " quiet p50_us=" + std::to_string(single_p50) +
              " all windows p50_us=" + std::to_string(median(single_us)) +
              " p99_us=" + std::to_string(quantile(single_us, 0.99)));
  report.note("pooled trials=" + std::to_string(totals.trials) +
              " flagged=" + std::to_string(totals.flagged) + " (z=" +
              std::to_string(z_flag) + ") wrong=" +
              std::to_string(totals.wrong) + " (z=" + std::to_string(z_wrong) +
              "), |z| bound " + std::to_string(kZBound) +
              ", same-seed repeat " + (repeat_ok ? "identical" : "DIFFERS"));
  if (!options.trace) return report;

  const double trials = static_cast<double>(timed_trials);
  report.layer("trace.throughput_rps", throughput, "1/s");
  report.layer("phase.requests", trials, "count");
  report.layer("phase.seconds", phase_s, "s");
  report.layer("mc.cores", ratio(cpu_s, phase_s), "cores");
  report.layer("mc.calls", static_cast<double>(rates.size()), "count");
  report.layer("mc.flag_frac", ratio(static_cast<double>(totals.flagged),
                                     static_cast<double>(totals.trials)),
               "ratio");
  report.layer("mc.wrong_frac", ratio(static_cast<double>(totals.wrong),
                                      static_cast<double>(totals.trials)),
               "ratio");
  report.layer("mc.trials", static_cast<double>(totals.trials), "count");
  report.layer("client.max_thread_busy", main_clock.max_busy(), "ratio");
  report.layer("client.cpu_ns", ratio(main_clock.cpu_s() * 1e9, trials), "ns");
  report.layer("program.allocs_per_req", ratio(allocs_other, trials), "count");
  report.layer("program.allocs", allocs_other, "count");
  report.layer("client.allocs_per_req", ratio(allocs_bench, trials), "count");
  report.layer("client.allocs", allocs_bench, "count");
  report.layer("proc.vcs_per_req", ratio(vcs, trials), "count");
  report.layer("proc.minflt_per_req", ratio(minflt, trials), "count");
  return report;
}

}  // namespace wallbench
