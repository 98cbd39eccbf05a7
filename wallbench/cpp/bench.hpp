#pragma once
// Shared pieces of the wall-clock benchmark: generated inputs and their
// exactness oracle, the report every workload fills, and the
// attribution helpers (thread CPU, getrusage, allocation counts, spans)
// the traced run reads from outside the program.
//
// The benchmark calls only program API that is meant to stay:
// AdderService's constructor, submit() and registry(); net::Server;
// net::Client send/recv/cork; run_batch_monte_carlo;
// analysis::choose_window and aca_*_probability; the wide sim::
// functions; encode_response and FrameDecoder.  Probes read only
// WideResult::sum_spec, flagged and wrong.

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/bitvec.hpp"

namespace wallbench {

using BitVec = vlsa::util::BitVec;

/// Every workload runs at this operand width ...
inline constexpr int kWidth = 1024;
/// ... and at the window choose_window gives for this flag probability
/// (k = 23 at width 1024), which is what `vlsa_tool serve 1024` uses.
inline constexpr double kMaxFlagProbability = 1e-4;
/// Operand pool size: 2^16 pairs of 2 x 128 bytes (16 MiB of operands),
/// larger than the per-core L2, so copies come from memory as they
/// would for fresh traffic.
inline constexpr std::size_t kPoolPairs = std::size_t{1} << 16;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Inputs and oracle (inputs.cpp)
// ---------------------------------------------------------------------------

/// Derive an independent seed for sub-stream `stream` of `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

enum class Mix {
  Uniform,        ///< both operands i.i.d. uniform (the paper's model)
  Complementary,  ///< b = ~a with width/32 random flips: almost every
                  ///< request has a propagate run >= k and is flagged
};

/// Operand pairs and their exact sums, all computed before timing.
struct Pool {
  std::vector<BitVec> a, b, sum;
  std::size_t size() const { return a.size(); }
};

Pool make_pool(Mix mix, std::uint64_t seed, std::size_t pairs = kPoolPairs);

/// The oracle: a completion for pool pair `index` passes iff its status
/// is Ok, its sum is the exact sum, and a wrong speculation was flagged
/// for recovery (wrong => flagged).
bool completion_ok(const Pool& pool, std::size_t index, bool status_ok,
                   const BitVec& sum, bool flagged, bool wrong);

// ---------------------------------------------------------------------------
// Report (report.cpp)
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Figures printed beside the metrics but never gated on (p99s,
  /// sample counts).
  std::vector<Metric> detail;
  /// Human-readable detail for stderr.
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Count `n` operations, `bad` of which failed.
  void count(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

/// One measurement window: its samples (a window's rate, or its round
/// trips) and the host steal ticks that fell inside it.
struct Window {
  std::vector<double> samples;
  double steal = 0.0;
};

/// Share of windows, least host steal first, that a metric is taken
/// over.  On a shared VM the hypervisor steals CPU in episodes lasting
/// seconds, and a stolen window runs slow whatever the program does;
/// the steal count comes from the host, not from the measured value, so
/// selecting on it drops interference without favouring lucky windows.
/// A slower program is slower in every window, the quiet ones too.
inline constexpr double kQuietShare = 1.0 / 3.0;

/// Median of the pooled samples of the quiet windows: those whose steal
/// is at or below the kQuietShare quantile of all windows' steal.  Ties
/// are kept, so with no steal at all every window counts.
double quiet_median(const std::vector<Window>& windows);

/// JSON object text for a metric list: {"name": {"value": v, "unit": u}}.
std::string metrics_json(const std::vector<Metric>& metrics);

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
/// `num / den`, or 0 when the base is 0.
double ratio(double num, double den);

// ---------------------------------------------------------------------------
// Attribution from outside the program (sys.cpp)
// ---------------------------------------------------------------------------

pid_t this_tid();
/// Thread ids currently in /proc/self/task.
std::vector<pid_t> list_tasks();
/// Ids in `after` that are not in `before`: the threads a constructor
/// started.
std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after);

/// CPU time of one thread of this process: total from the thread's
/// CPU clock (ns resolution), user/system split from /proc (ticks).
struct ThreadCpu {
  double cpu_s = 0.0;
  double user_ticks = 0.0;
  double sys_ticks = 0.0;
};

/// CPU of a group of threads, summed over one or more measured
/// intervals (a workload measures in rounds, each with fresh threads).
class ThreadGroupClock {
 public:
  /// Begin an interval over `tids`.
  void start(std::vector<pid_t> tids);
  /// End the interval and add it to the totals.
  void stop();
  double cpu_s() const { return cpu_s_; }
  /// Busiest thread's CPU / wall, wall-weighted over the intervals.
  double max_busy() const { return ratio(busiest_s_, wall_s_); }
  /// System share of the group's CPU ticks.
  double sys_frac() const {
    return ratio(sys_ticks_, user_ticks_ + sys_ticks_);
  }
  double wall_s() const { return wall_s_; }

 private:
  std::vector<pid_t> tids_;
  std::vector<ThreadCpu> begin_;
  Clock::time_point t0_;
  double cpu_s_ = 0.0;
  double busiest_s_ = 0.0;
  double user_ticks_ = 0.0;
  double sys_ticks_ = 0.0;
  double wall_s_ = 0.0;
};

/// getrusage(RUSAGE_SELF) fields the benchmark reads.
struct Usage {
  double cpu_s = 0.0;
  double vcs = 0.0;     ///< voluntary context switches
  double ivcs = 0.0;    ///< involuntary context switches
  double minflt = 0.0;  ///< minor page faults
  double maxrss_mib = 0.0;
};
Usage usage();

/// CPU time the hypervisor stole from this VM so far, in USER_HZ ticks
/// summed over all vCPUs (/proc/stat); 0 where the kernel reports none.
double steal_ticks();

/// ns per iteration of a fixed integer loop — a host-speed reading
/// taken at the start of every run so host drift can be told apart
/// from a code change.  Never gated on.
double host_loop_ns();

// ---------------------------------------------------------------------------
// Allocation counting (alloc_count.cpp in the traced build; alloc_off.cpp
// elsewhere, where every call is a no-op and nothing replaces operator new)
// ---------------------------------------------------------------------------

namespace alloc {
struct Counts {
  std::uint64_t bench = 0;  ///< on threads the benchmark started
  std::uint64_t other = 0;  ///< on threads the program started
};
bool enabled();
/// Mark the calling thread as benchmark-owned.
void mark_bench_thread();
Counts counts();
}  // namespace alloc

// ---------------------------------------------------------------------------
// Spans (report.cpp)
// ---------------------------------------------------------------------------

/// One span of a sampled request: a `request` root and its children
/// share `id`; children name it as `parent`.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  bool root = false;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans one benchmark thread recorded, kept in memory until exit.
struct SpanLog {
  int thread = 0;
  std::vector<Span> spans;
};

/// Write the logs as Chrome trace-event JSON.  Returns false on an I/O
/// failure.
bool write_spans(const std::string& path, const std::vector<SpanLog>& logs);

/// p50 duration in microseconds of the spans called `name`.
double span_p50_us(const std::vector<SpanLog>& logs, const char* name);

// ---------------------------------------------------------------------------
// Workloads and probes
// ---------------------------------------------------------------------------

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced runs write their spans here
  /// Set-ups per round; setup_s is the median over all rounds.
  int setups_per_round = 3;
  /// Operand pool size (the self-test shrinks it).
  std::size_t pool_pairs = kPoolPairs;
};

/// A run measures in rounds of about kRoundS seconds, each on a fresh
/// set-up with fresh threads.
inline constexpr double kRoundS = 3.0;
inline int rounds_for(double seconds) {
  return seconds < 2 * kRoundS ? 1 : static_cast<int>(seconds / kRoundS);
}

/// In-process service workloads (inproc_uniform / inproc_adversarial).
Report run_inproc(const RunOptions& options, Mix mix);
/// The same over loopback TCP (tcp_uniform).
Report run_tcp(const RunOptions& options);
/// Monte-Carlo error-rate engine (mc_uniform).
Report run_mc(const RunOptions& options);

/// Service workloads on a caller-built pool (the self-test corrupts an
/// expected sum and checks the failure is counted).
Report run_inproc_on(const RunOptions& options, const Pool& pool);
Report run_tcp_on(const RunOptions& options, const Pool& pool);

/// Isolated stage probes at the service's batch shape, on uniform
/// operands drawn from `seed` (traced runs).
void run_probes(std::uint64_t seed, Report& report);

}  // namespace wallbench
