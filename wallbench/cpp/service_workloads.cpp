// Service workloads: inproc_uniform, inproc_adversarial and tcp_uniform.
//
// A run is a series of rounds (rounds_for in bench.hpp).  Each round sets
// the workload up afresh several times (setup_s is the median over all
// set-ups of the run), keeps the last set-up, and measures two phases on
// it:
//
//   saturated  two new generator threads, each keeping 512 requests
//              outstanding (closed loop); throughput_rps is the median
//              verified completion rate of the quiet windows
//   unloaded   one request outstanding at a time; unloaded_p50_us is
//              the median round trip of the quiet windows
//
// Rounds with fresh threads spread each metric over several thread
// placements and several stretches of host time, so one slow vCPU or
// one noisy stretch moves a few windows, not the run.
//
// Every completion is checked against the pool's precomputed sum.
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analysis/aca_probability.hpp"
#include "bench.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "telemetry/registry.hpp"

namespace wallbench {

namespace {

using vlsa::net::Client;
using vlsa::net::ResponseFrame;
using vlsa::net::Server;
using vlsa::service::AdderService;
using vlsa::service::Completion;

constexpr int kGenerators = 2;
constexpr std::size_t kOutstanding = 512;
/// Traced runs give every 64th request of a generator a span tree.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kSpanCapacity = std::size_t{3} << 16;
/// Warm-up before a round's first window (the first round also warms
/// the caches and the allocator), discarded.
constexpr double kFirstWarmupS = 0.5;
constexpr double kWarmupS = 0.25;
/// Throughput is read per window of kWindowS, round trips are grouped
/// into windows of kSubWindowS; both metrics are taken over the quiet
/// windows (quiet_median in bench.hpp).
constexpr double kWindowS = 0.25;
constexpr double kSubWindowS = 0.1;
/// Share of --seconds spent saturated; the rest is the unloaded phase.
constexpr double kSaturatedShare = 0.7;

/// One set-up of the system under test.  Members are destroyed in
/// reverse order: clients, then the server, then the service.
struct Rig {
  int window = 0;
  std::unique_ptr<AdderService> service;
  std::unique_ptr<Server> server;
  std::vector<Client> clients;
  std::vector<pid_t> service_tids;
  std::vector<pid_t> net_tids;
};

/// The oracle on a TCP response and on an in-process completion.
bool check(const Pool& pool, std::size_t index, const ResponseFrame& r) {
  return completion_ok(
      pool, index, r.status == vlsa::net::Status::Ok && r.width == kWidth,
      r.sum, (r.flags & vlsa::net::kFlagRecovered) != 0,
      (r.flags & vlsa::net::kFlagWrong) != 0);
}

bool check(const Pool& pool, std::size_t index, const Completion& c) {
  return completion_ok(pool, index, true, c.sum, c.flagged,
                       c.speculative_wrong);
}

/// Window sizing, service (and server and clients), and the first
/// verified result: everything setup_s times.
std::unique_ptr<Rig> set_up(bool tcp, const Pool& pool, Report& report) {
  auto rig = std::make_unique<Rig>();
  rig->window = vlsa::analysis::choose_window(kWidth, kMaxFlagProbability);
  vlsa::service::ServiceConfig config;
  config.pipeline.width = kWidth;
  config.pipeline.window = rig->window;
  config.shards = 2;
  config.workers = 2;
  auto before = list_tasks();
  rig->service = std::make_unique<AdderService>(config);
  rig->service_tids = new_tasks(before, list_tasks());
  bool ok = false;
  if (tcp) {
    vlsa::net::ServerConfig server_config;
    server_config.event_threads = 1;
    before = list_tasks();
    rig->server = std::make_unique<Server>(server_config, *rig->service);
    rig->net_tids = new_tasks(before, list_tasks());
    // Corked from the start and never uncorked: sends are batched into
    // larger writes, and every recv() flushes first, so a lone request
    // still goes out before its response is awaited.  (Corking a client
    // that has sent uncorked makes it send its last frame again; the
    // exactly-once check counts the duplicate response as a failure.)
    for (int c = 0; c < kGenerators; ++c) {
      rig->clients.emplace_back(server_config.host, rig->server->port());
      rig->clients.back().cork(true);
    }
    const std::uint64_t id = rig->clients[0].send(pool.a[0], pool.b[0]);
    const ResponseFrame r = rig->clients[0].recv();
    ok = r.id == id && check(pool, 0, r);
  } else {
    auto future = rig->service->submit(pool.a[0], pool.b[0]);
    ok = future.has_value() && check(pool, 0, future->get());
  }
  report.count(1, ok ? 0 : 1);
  return rig;
}

struct Control {
  bool trace = false;
  std::atomic<bool> stop{false};
  /// Spans are sampled only inside the measured window.
  std::atomic<bool> recording{false};
};

struct alignas(64) Generator {
  std::atomic<std::uint64_t> verified{0};
  std::atomic<pid_t> tid{0};
  // Owned by the generator thread; read after it is joined.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  SpanLog log;
};

bool sample(const Control& control, const Generator& g, std::uint64_t seq) {
  return control.trace && seq % kSampleEvery == 0 &&
         control.recording.load(std::memory_order_relaxed) &&
         g.log.spans.size() + 3 <= kSpanCapacity;
}

std::uint64_t span_id(const Generator& g, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(g.log.thread) << 40) | seq;
}

std::size_t advance(const Pool& pool, std::size_t& cursor) {
  const std::size_t index = cursor;
  cursor = cursor + 1 == pool.size() ? 0 : cursor + 1;
  return index;
}

/// In-process closed loop: 512 futures in a ring; wait for the oldest,
/// check it, submit the next.
void inproc_generator(AdderService& service, const Pool& pool,
                      std::size_t cursor, Generator& g,
                      const Control& control) {
  struct Slot {
    std::future<Completion> future;
    std::size_t index = 0;
    std::uint64_t id = 0;
    std::uint64_t t0 = 0;
    bool sampled = false;
  };
  std::vector<Slot> ring(kOutstanding);
  std::uint64_t seq = 0;
  auto submit = [&](Slot& s) {
    s.index = advance(pool, cursor);
    s.sampled = sample(control, g, seq);
    s.id = span_id(g, seq++);
    ++g.attempted;
    const std::uint64_t t0 = s.sampled ? now_ns() : 0;
    auto future = service.submit(pool.a[s.index], pool.b[s.index]);
    if (s.sampled) {
      s.t0 = t0;
      g.log.spans.push_back({"client.submit", s.id, false, t0, now_ns()});
    }
    if (future) {
      s.future = std::move(*future);
    } else {
      ++g.failed;
    }
  };
  auto complete = [&](Slot& s) {
    if (!s.future.valid()) return;
    const std::uint64_t t0 = s.sampled ? now_ns() : 0;
    bool ok = false;
    try {
      ok = check(pool, s.index, s.future.get());
    } catch (const std::exception&) {
      ok = false;
    }
    if (s.sampled) {
      const std::uint64_t t1 = now_ns();
      g.log.spans.push_back({"client.wait", s.id, false, t0, t1});
      g.log.spans.push_back({"request", s.id, true, s.t0, t1});
    }
    if (ok) {
      g.verified.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++g.failed;
    }
  };
  for (auto& s : ring) submit(s);
  std::size_t next = 0;
  while (!control.stop.load(std::memory_order_relaxed)) {
    complete(ring[next]);
    submit(ring[next]);
    next = (next + 1) % kOutstanding;
  }
  for (std::size_t i = 0; i < kOutstanding; ++i) {
    complete(ring[(next + i) % kOutstanding]);
  }
}

/// TCP closed loop on one corked connection: fill to 512 outstanding,
/// drain to half, repeat.  A ring indexed by request id checks that
/// each id is answered exactly once.
void tcp_generator(Client& client, const Pool& pool, std::size_t cursor,
                   Generator& g, const Control& control) {
  struct Pending {
    std::uint64_t id = 0;
    std::size_t index = 0;
    std::uint64_t t0 = 0;
    bool live = false;
    bool sampled = false;
  };
  constexpr std::size_t kRing = std::size_t{1} << 16;
  std::vector<Pending> ring(kRing);
  std::uint64_t seq = 0;
  auto send_one = [&] {
    const std::size_t index = advance(pool, cursor);
    const bool sampled = sample(control, g, seq++);
    const std::uint64_t t0 = sampled ? now_ns() : 0;
    const std::uint64_t id = client.send(pool.a[index], pool.b[index]);
    ++g.attempted;
    Pending& p = ring[id & (kRing - 1)];
    if (p.live) ++g.failed;  // the id this slot held was never answered
    p = Pending{id, index, t0, true, sampled};
    if (sampled) {
      g.log.spans.push_back(
          {"client.send", span_id(g, id), false, t0, now_ns()});
    }
  };
  auto recv_one = [&] {
    const std::uint64_t t0 = control.trace ? now_ns() : 0;
    const ResponseFrame r = client.recv();
    Pending& p = ring[r.id & (kRing - 1)];
    if (!p.live || p.id != r.id) {  // duplicate or unknown id
      ++g.failed;
      return;
    }
    p.live = false;
    if (p.sampled) {
      const std::uint64_t t1 = now_ns();
      g.log.spans.push_back({"client.recv", span_id(g, r.id), false, t0, t1});
      g.log.spans.push_back({"request", span_id(g, r.id), true, p.t0, t1});
    }
    if (check(pool, p.index, r)) {
      g.verified.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++g.failed;
    }
  };
  while (!control.stop.load(std::memory_order_relaxed)) {
    while (client.outstanding() < kOutstanding) send_one();
    while (client.outstanding() > kOutstanding / 2) recv_one();
  }
  while (client.outstanding() > 0) recv_one();
}

double counter(const vlsa::telemetry::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return static_cast<double>(v);
  }
  for (const auto& h : s.histograms) {
    if (h.name == name) return static_cast<double>(h.count);
  }
  return 0.0;
}

/// Registry counters (and histogram counts) the traced run reads.
const char* const kCounters[] = {
    "service.completed", "service.batches",  "service.recovered",
    "service.speculative_wrong", "net.frames_in", "net.frames_out",
    "net.read_stalls", "net.read_ns", "net.write_ns"};

/// Traced-run readings, summed over the measured windows of all rounds.
struct Attribution {
  ThreadGroupClock service, net, bench;
  std::map<std::string, double> counters;
  double requests = 0.0;
  double vcs = 0.0;
  double minflt = 0.0;
  double allocs_bench = 0.0;
  double allocs_other = 0.0;
  double unloaded_cpu_s = 0.0;
  std::vector<SpanLog> logs;
};

std::uint64_t verified(const std::vector<std::unique_ptr<Generator>>& gens) {
  std::uint64_t sum = 0;
  for (const auto& g : gens) sum += g->verified.load(std::memory_order_relaxed);
  return sum;
}

/// The measured phases of one round, on a fresh set-up.
struct Round {
  Rig& rig;
  const Pool& pool;
  const RunOptions& options;
  bool tcp;
  int index;
};

/// Saturated phase: two closed-loop generators; appends one throughput
/// reading per window.
void saturate(const Round& round, double seconds, Report& report,
              std::vector<Window>& windows, Attribution& at) {
  const Pool& pool = round.pool;
  Control control;
  control.trace = round.options.trace;
  std::vector<std::unique_ptr<Generator>> gens;
  for (int i = 0; i < kGenerators; ++i) {
    gens.push_back(std::make_unique<Generator>());
    gens.back()->log.thread = round.index * kGenerators + i + 1;
    if (control.trace) gens.back()->log.spans.reserve(kSpanCapacity);
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kGenerators; ++i) {
    threads.emplace_back([&, i] {
      alloc::mark_bench_thread();
      Generator& g = *gens[static_cast<std::size_t>(i)];
      g.tid.store(this_tid());
      const std::size_t first =
          (pool.size() / kGenerators * static_cast<std::size_t>(i) +
           static_cast<std::size_t>(round.index) * 4099) %
          pool.size();
      try {
        if (round.tcp) {
          tcp_generator(round.rig.clients[static_cast<std::size_t>(i)], pool,
                        first, g, control);
        } else {
          inproc_generator(*round.rig.service, pool, first, g, control);
        }
      } catch (const std::exception&) {
        ++g.attempted;
        ++g.failed;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(
      round.index == 0 ? kFirstWarmupS : kWarmupS));

  vlsa::telemetry::Snapshot snap0;
  Usage use0;
  alloc::Counts allocs0;
  const std::uint64_t verified0 = verified(gens);
  if (control.trace) {
    std::vector<pid_t> bench_tids{this_tid()};
    for (const auto& g : gens) {
      while (g->tid.load() == 0) std::this_thread::yield();
      bench_tids.push_back(g->tid.load());
    }
    snap0 = round.rig.service->registry().snapshot();
    use0 = usage();
    allocs0 = alloc::counts();
    at.service.start(round.rig.service_tids);
    at.net.start(round.rig.net_tids);
    at.bench.start(bench_tids);
    control.recording.store(true);
  }
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowS));
  const auto phase0 = Clock::now();
  auto mark = phase0;
  std::uint64_t last = verified0;
  double steal = steal_ticks();
  while (seconds_between(phase0, mark) < seconds - kWindowS / 2) {
    std::this_thread::sleep_until(mark + window);
    const auto now = Clock::now();
    const std::uint64_t done = verified(gens);
    const double steal_now = steal_ticks();
    windows.push_back({{static_cast<double>(done - last) /
                        seconds_between(mark, now)},
                       steal_now - steal});
    last = done;
    mark = now;
    steal = steal_now;
  }
  if (control.trace) {
    control.recording.store(false);
    at.service.stop();
    at.net.stop();
    at.bench.stop();
    const auto snap1 = round.rig.service->registry().snapshot();
    for (const char* name : kCounters) {
      at.counters[name] += counter(snap1, name) - counter(snap0, name);
    }
    const Usage use1 = usage();
    const alloc::Counts allocs1 = alloc::counts();
    at.requests += static_cast<double>(last - verified0);
    at.vcs += use1.vcs - use0.vcs;
    at.minflt += use1.minflt - use0.minflt;
    at.allocs_bench += static_cast<double>(allocs1.bench - allocs0.bench);
    at.allocs_other += static_cast<double>(allocs1.other - allocs0.other);
  }
  control.stop.store(true);
  for (auto& t : threads) t.join();
  for (auto& g : gens) {
    report.count(g->attempted, g->failed);
    if (control.trace) at.logs.push_back(std::move(g->log));
  }
}

/// Unloaded phase: one request outstanding; appends one window of
/// round trips (in us) per kSubWindowS.
void unload(const Round& round, double seconds, std::size_t& cursor,
            Report& report, std::vector<Window>& windows, Attribution& at) {
  const Pool& pool = round.pool;
  std::uint64_t attempted = 0, failed = 0;
  const Usage use0 = usage();
  const auto phase0 = Clock::now();
  while (seconds_between(phase0, Clock::now()) < seconds) {
    Window w;
    const double steal0 = steal_ticks();
    const auto window0 = Clock::now();
    while (seconds_between(window0, Clock::now()) < kSubWindowS) {
      const std::size_t index = advance(pool, cursor);
      bool ok = false;
      ++attempted;
      if (round.tcp) {
        Client& client = round.rig.clients[0];
        const auto t0 = Clock::now();
        const std::uint64_t id = client.send(pool.a[index], pool.b[index]);
        const ResponseFrame r = client.recv();
        w.samples.push_back(seconds_between(t0, Clock::now()) * 1e6);
        ok = r.id == id && check(pool, index, r);
      } else {
        BitVec a = pool.a[index];
        BitVec b = pool.b[index];
        const auto t0 = Clock::now();
        auto future = round.rig.service->submit(std::move(a), std::move(b));
        if (future) {
          const Completion c = future->get();
          w.samples.push_back(seconds_between(t0, Clock::now()) * 1e6);
          ok = check(pool, index, c);
        }
      }
      if (!ok) ++failed;
    }
    w.steal = steal_ticks() - steal0;
    windows.push_back(std::move(w));
  }
  at.unloaded_cpu_s += usage().cpu_s - use0.cpu_s;
  report.count(attempted, failed);
}

Report run_service(const RunOptions& options, const Pool& pool, bool tcp) {
  Report report;
  const int rounds = rounds_for(options.seconds);
  const double saturated_s = options.seconds * kSaturatedShare / rounds;
  const double unloaded_s = options.seconds * (1.0 - kSaturatedShare) / rounds;
  std::vector<double> setup_s;
  std::vector<Window> rate_windows, trip_windows;
  Attribution at;
  int window = 0;
  std::size_t service_threads = 0, net_threads = 0, cursor = 0;
  for (int r = 0; r < rounds; ++r) {
    std::unique_ptr<Rig> rig;
    for (int s = 0; s < options.setups_per_round; ++s) {
      rig.reset();
      const auto t0 = Clock::now();
      rig = set_up(tcp, pool, report);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    window = rig->window;
    service_threads = rig->service_tids.size();
    net_threads = rig->net_tids.size();
    const Round round{*rig, pool, options, tcp, r};
    saturate(round, saturated_s, report, rate_windows, at);
    unload(round, unloaded_s, cursor, report, trip_windows, at);
  }

  std::vector<double> rates, trips;
  for (const auto& w : rate_windows) rates.push_back(w.samples[0]);
  for (const auto& w : trip_windows) {
    trips.insert(trips.end(), w.samples.begin(), w.samples.end());
  }
  const double throughput = quiet_median(rate_windows);
  const double unloaded_p50 = quiet_median(trip_windows);
  report.e2e("throughput_rps", throughput, "1/s");
  report.e2e("unloaded_p50_us", unloaded_p50, "us");
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("peak_rss_mb", usage().maxrss_mib, "MiB");
  report.detail.push_back({"unloaded_p99_us", quantile(trips, 0.99), "us"});
  report.detail.push_back(
      {"unloaded_samples", static_cast<double>(trips.size()), "count"});
  report.note("k=" + std::to_string(window) + " rounds=" +
              std::to_string(rounds) + " windows=" +
              std::to_string(rates.size()) + " throughput_rps quiet=" +
              std::to_string(throughput) + " all windows p25=" +
              std::to_string(quantile(rates, 0.25)) +
              " p50=" + std::to_string(median(rates)) +
              " p75=" + std::to_string(quantile(rates, 0.75)));
  report.note("unloaded round trip us: quiet p50=" +
              std::to_string(unloaded_p50) + "; all windows p50=" +
              std::to_string(median(trips)) + " p99=" +
              std::to_string(quantile(trips, 0.99)) + " over " +
              std::to_string(trips.size()) + " samples");
  report.note("setup_s samples=" + std::to_string(setup_s.size()) +
              " min=" + std::to_string(quantile(setup_s, 0.0)) +
              " max=" + std::to_string(quantile(setup_s, 1.0)));
  report.note("attempted=" + std::to_string(report.attempted) +
              " failed=" + std::to_string(report.failed));
  if (!options.trace) return report;

  auto c = [&](const char* name) { return at.counters[name]; };
  const double requests = at.requests;
  const double wall = at.service.wall_s();
  const double completed = c("service.completed");
  const double recovered = c("service.recovered");
  const double wrong = c("service.speculative_wrong");
  report.layer("trace.throughput_rps", throughput, "1/s");
  report.layer("phase.requests", requests, "count");
  report.layer("phase.seconds", wall, "s");
  report.layer("service.threads", static_cast<double>(service_threads),
               "count");
  report.layer("service.cores", ratio(at.service.cpu_s(), wall), "cores");
  report.layer("service.max_thread_busy", at.service.max_busy(), "ratio");
  report.layer("service.cpu_ns", ratio(at.service.cpu_s() * 1e9, completed),
               "ns");
  report.layer("service.sys_frac", at.service.sys_frac(), "ratio");
  report.layer("service.batch_mean", ratio(completed, c("service.batches")),
               "count");
  report.layer("service.flag_frac", ratio(recovered, completed), "ratio");
  report.layer("service.false_alarm_frac",
               ratio(recovered - wrong, recovered), "ratio");
  report.layer("service.completed", completed, "count");
  report.layer("service.batches", c("service.batches"), "count");
  report.layer("service.recovered", recovered, "count");
  report.layer("service.speculative_wrong", wrong, "count");
  report.layer("program.allocs_per_req", ratio(at.allocs_other, requests),
               "count");
  report.layer("program.allocs", at.allocs_other, "count");
  if (tcp) {
    const double frames_in = c("net.frames_in");
    const double frames_out = c("net.frames_out");
    report.layer("net.threads", static_cast<double>(net_threads), "count");
    report.layer("net.cores", ratio(at.net.cpu_s(), wall), "cores");
    report.layer("net.max_thread_busy", at.net.max_busy(), "ratio");
    report.layer("net.cpu_ns", ratio(at.net.cpu_s() * 1e9, frames_in), "ns");
    report.layer("net.sys_frac", at.net.sys_frac(), "ratio");
    report.layer("net.frames_per_read", ratio(frames_in, c("net.read_ns")),
                 "count");
    report.layer("net.frames_per_write", ratio(frames_out, c("net.write_ns")),
                 "count");
    report.layer("net.frames_in", frames_in, "count");
    report.layer("net.frames_out", frames_out, "count");
    report.layer("net.reads", c("net.read_ns"), "count");
    report.layer("net.writes", c("net.write_ns"), "count");
    report.layer("net.read_stalls", c("net.read_stalls"), "count");
  }
  report.layer("client.max_thread_busy", at.bench.max_busy(), "ratio");
  report.layer("client.cpu_ns", ratio(at.bench.cpu_s() * 1e9, requests), "ns");
  report.layer("client.submit_us",
               span_p50_us(at.logs, tcp ? "client.send" : "client.submit"),
               "us");
  report.layer("client.wait_us",
               span_p50_us(at.logs, tcp ? "client.recv" : "client.wait"),
               "us");
  report.layer("client.allocs_per_req", ratio(at.allocs_bench, requests),
               "count");
  report.layer("client.allocs", at.allocs_bench, "count");
  double sampled = 0.0;
  for (const auto& log : at.logs) {
    for (const auto& span : log.spans) sampled += span.root ? 1.0 : 0.0;
  }
  report.layer("client.sampled_requests", sampled, "count");
  report.layer("proc.vcs_per_req", ratio(at.vcs, requests), "count");
  report.layer("proc.minflt_per_req", ratio(at.minflt, requests), "count");
  const auto unloaded = static_cast<double>(trips.size());
  report.layer("unloaded.cpu_us", ratio(at.unloaded_cpu_s * 1e6, unloaded),
               "us");
  report.layer("unloaded.requests", unloaded, "count");
  if (!options.spans_out.empty() && !write_spans(options.spans_out, at.logs)) {
    report.note("could not write spans to " + options.spans_out);
  }
  return report;
}

}  // namespace

Report run_inproc_on(const RunOptions& options, const Pool& pool) {
  return run_service(options, pool, false);
}

Report run_tcp_on(const RunOptions& options, const Pool& pool) {
  return run_service(options, pool, true);
}

Report run_inproc(const RunOptions& options, Mix mix) {
  return run_inproc_on(options,
                       make_pool(mix, options.seed, options.pool_pairs));
}

Report run_tcp(const RunOptions& options) {
  return run_tcp_on(options,
                    make_pool(Mix::Uniform, options.seed, options.pool_pairs));
}

}  // namespace wallbench
