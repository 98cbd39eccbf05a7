// Arithmetic-service load study: what the VLSA's variable latency looks
// like at the *system* level, where it is a tail-latency story.
//
// Four experiments (plus a tracing-overhead check):
//   1. Batching ablation — saturating multi-producer load, worker count
//      x scheduler batch size.  Each request is evaluated in its own
//      limbs, so a batch of 64 amortizes only the per-pop work (queue
//      transaction, clock tick, telemetry); the acceptance floor is 5x
//      over the batch-size-1 scheduler at 8 workers.
//   2. Tail latency vs operand distribution at a fixed Poisson arrival
//      rate.  Uniform traffic flags ~never (p50 == p999 == a few
//      cycles); near-complementary traffic flags ~always and the serial
//      recovery lane congests, blowing up p99/p999 — "fast path almost
//      always, slow path rarely" made visible, and its failure mode
//      when "rarely" stops holding.
//   3. Poisson vs bursty arrivals at the same mean rate — burstiness
//      alone (same operands, same mean load) fattens the wall-clock
//      tail and triggers reject-policy backpressure.
//   4. Sharded scaling — throughput vs shard count (1/2/4/8) at width
//      1024.  Each shard models one independent VLSA functional unit
//      with its own virtual clock, so the modeled axis (requests per
//      makespan cycle) measures the architecture and the wall-clock
//      axis measures the host; the acceptance floor (>= 3x at 4 shards
//      vs 1) is on the modeled axis, with `hardware_threads` recorded
//      so a reader can interpret the wall numbers on small machines.
//      The section is also written standalone to BENCH_scaling.json
//      (the committed curve at the repo root; see docs/scaling.md), and
//      `--scaling [--quick]` runs just this section; the quick curve
//      (the CI smoke) goes to BENCH_scaling_quick.json instead, so a
//      quick run never overwrites the full one.
//
// Everything lands in service_throughput.bench.json (with provenance)
// for cross-PR trajectories.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "service/service.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workloads/load_gen.hpp"
#include "workloads/operand_stream.hpp"

namespace {

using namespace vlsa;

constexpr int kWidth = 64;
constexpr int kProducers = 4;
/// max_batch of the batched configs: 64, the pop size the CI-gated
/// batching ratio has always compared with batch 1.  The service's own
/// default is kDefaultMaxBatch (256); neither depends on the ISA tier.
constexpr int kBatch = 64;

service::ServiceConfig base_config(int workers, int max_batch,
                                   int width = kWidth) {
  service::ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = bench::window_9999(width);
  config.workers = workers;
  config.max_batch = max_batch;
  config.queue_capacity = 4096;
  return config;
}

telemetry::HistogramSnapshot find_histogram(const telemetry::Snapshot& snap,
                                            const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h;
  }
  return {};
}

long long find_counter(const telemetry::Snapshot& snap,
                       const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

struct ThroughputPoint {
  int workers = 0;
  int max_batch = 0;
  long long requests = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
};

// Saturating closed-pressure load: kProducers threads submit 64-deep
// chunks as fast as the Block policy lets them (per-request submission
// caps a producer near 0.3 Mreq/s on queue wakeups alone, which would
// measure the producers, not the scheduler); operands are generated
// before the clock starts for the same reason.  Throughput is
// completion-bound.
ThroughputPoint measure_throughput(int workers, int max_batch,
                                   long long requests, int width = kWidth,
                                   long long chunk = 64) {
  auto config = base_config(workers, max_batch, width);
  config.record_wall_time = false;  // keep the hot path bare
  service::AdderService service(config);
  using Chunk = std::vector<std::pair<util::BitVec, util::BitVec>>;
  std::vector<std::vector<Chunk>> feeds(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    workloads::OperandStream stream(workloads::Distribution::Uniform,
                                    width, 0xbea7 + p);
    const long long share = requests / kProducers;
    const long long kChunk = chunk;
    for (long long i = 0; i < share; i += kChunk) {
      Chunk ops;
      ops.reserve(static_cast<std::size_t>(std::min(kChunk, share - i)));
      for (long long j = 0; j < std::min(kChunk, share - i); ++j) {
        ops.push_back(stream.next());
      }
      feeds[p].push_back(std::move(ops));
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &feeds, p] {
      for (auto& ops : feeds[p]) {
        service.submit_many(std::move(ops));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  service.flush();
  const auto t1 = std::chrono::steady_clock::now();
  ThroughputPoint point;
  point.workers = workers;
  point.max_batch = max_batch;
  point.requests = requests / kProducers * kProducers;
  point.seconds = std::chrono::duration<double>(t1 - t0).count();
  point.requests_per_sec = point.requests / point.seconds;
  return point;
}

struct ScalingPoint {
  int shards = 0;
  int workers = 0;
  long long requests = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  long long makespan_cycles = 0;
  double requests_per_cycle = 0.0;
};

// One scaling-curve point: N shards, one dispatcher worker per shard,
// round-robin routing (provably even split at chunk granularity — the
// curve should measure sharding, not hash luck).  The modeled number
// divides by now_cycles(), the max over per-shard virtual clocks
// (makespan): N balanced shards retire N batches per makespan cycle.
ScalingPoint measure_scaling(int shards, long long requests, int width) {
  auto config = base_config(/*workers=*/shards, kBatch, width);
  config.shards = shards;
  config.route = service::RoutePolicy::RoundRobin;
  config.record_wall_time = false;
  service::AdderService service(config);
  using Chunk = std::vector<std::pair<util::BitVec, util::BitVec>>;
  std::vector<std::vector<Chunk>> feeds(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                    0x5ca1e + p);
    const long long share = requests / kProducers;
    constexpr long long kChunk = 64;
    for (long long i = 0; i < share; i += kChunk) {
      Chunk ops;
      ops.reserve(static_cast<std::size_t>(std::min(kChunk, share - i)));
      for (long long j = 0; j < std::min(kChunk, share - i); ++j) {
        ops.push_back(stream.next());
      }
      feeds[p].push_back(std::move(ops));
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &feeds, p] {
      for (auto& ops : feeds[p]) {
        service.submit_many(std::move(ops));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  service.flush();
  const auto t1 = std::chrono::steady_clock::now();
  ScalingPoint point;
  point.shards = shards;
  point.workers = shards;
  point.requests = requests / kProducers * kProducers;
  point.seconds = std::chrono::duration<double>(t1 - t0).count();
  point.requests_per_sec = point.requests / point.seconds;
  point.makespan_cycles = service.now_cycles();
  point.requests_per_cycle =
      point.makespan_cycles == 0
          ? 0.0
          : static_cast<double>(point.requests) /
                static_cast<double>(point.makespan_cycles);
  return point;
}

// The scaling study (experiment 4).  Standalone output lands in the
// working directory, in BENCH_scaling.json or, in quick mode,
// BENCH_scaling_quick.json; when `parent` is set the same section is
// embedded in the main bench sidecar under "scaling".  Quick mode (the
// CI smoke) measures shard counts {1, 2} with a smaller request count
// and a 1.3x floor at 2 shards.
void run_scaling(bool quick, util::JsonWriter* parent) {
  bench::banner(quick
                    ? "Sharded scaling (quick) — shards {1, 2}, width 1024"
                    : "Sharded scaling — throughput vs shard count, "
                      "width 1024");
  constexpr int kScalingWidth = 1024;
  const long long requests = quick ? 24'000 : 96'000;
  const std::vector<int> shard_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  std::vector<ScalingPoint> points;
  points.reserve(shard_counts.size());
  for (const int shards : shard_counts) {
    points.push_back(measure_scaling(shards, requests, kScalingWidth));
  }
  const ScalingPoint& base = points.front();
  util::Table table({"shards", "Mreq/s", "wall x", "makespan cyc",
                     "req/cycle", "modeled x"});
  double modeled_2 = 0.0, modeled_4 = 0.0;
  for (const auto& point : points) {
    const double wall_x = point.requests_per_sec / base.requests_per_sec;
    const double modeled_x =
        point.requests_per_cycle / base.requests_per_cycle;
    if (point.shards == 2) modeled_2 = modeled_x;
    if (point.shards == 4) modeled_4 = modeled_x;
    table.add_row({std::to_string(point.shards),
                   util::Table::num(point.requests_per_sec / 1e6, 3),
                   util::Table::num(wall_x, 2),
                   std::to_string(point.makespan_cycles),
                   util::Table::num(point.requests_per_cycle, 1),
                   util::Table::num(modeled_x, 2)});
  }
  table.print(std::cout);
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::cout << "(modeled axis: requests per makespan cycle, each shard one "
               "VLSA functional unit; wall axis bounded by "
            << hardware_threads << " hardware thread(s) on this host)\n";
  if (quick) {
    std::cout << "2-shard modeled speedup: " << util::Table::num(modeled_2, 2)
              << "x (quick floor is 1.3x)\n";
  } else {
    std::cout << "4-shard modeled speedup: " << util::Table::num(modeled_4, 2)
              << "x (acceptance floor is 3x)\n";
  }
  const auto write_scaling_json = [&](util::JsonWriter& out) {
    out.kv("width", kScalingWidth);
    out.kv("window", bench::window_9999(kScalingWidth));
    out.kv("producers", kProducers);
    out.kv("requests", requests / kProducers * kProducers);
    out.kv("route", "rr");
    out.kv("quick", quick);
    out.kv("hardware_threads", hardware_threads);
    out.key("points").begin_array();
    for (const auto& point : points) {
      out.begin_object();
      out.kv("shards", point.shards).kv("workers", point.workers);
      out.kv("requests", point.requests).kv("seconds", point.seconds);
      out.kv("requests_per_sec", point.requests_per_sec);
      out.kv("makespan_cycles", point.makespan_cycles);
      out.kv("requests_per_cycle", point.requests_per_cycle);
      out.kv("wall_speedup_vs_1",
             point.requests_per_sec / base.requests_per_sec);
      out.kv("modeled_speedup_vs_1",
             point.requests_per_cycle / base.requests_per_cycle);
      out.end_object();
    }
    out.end_array();
    out.kv("modeled_speedup_2_shards", modeled_2);
    if (!quick) {
      out.kv("modeled_speedup_4_shards", modeled_4);
      out.kv("meets_3x_modeled_floor", modeled_4 >= 3.0);
    }
    out.kv("meets_1_3x_quick_floor", modeled_2 >= 1.3);
  };
  {
    const char* path =
        quick ? "BENCH_scaling_quick.json" : "BENCH_scaling.json";
    std::ofstream scaling_file(path);
    std::cout << "(scaling curve -> " << path << ")\n";
    util::JsonWriter scaling_json(scaling_file);
    scaling_json.begin_object();
    scaling_json.kv("bench", "BENCH_scaling");
    bench::write_provenance(scaling_json);
    write_scaling_json(scaling_json);
    scaling_json.end_object();
  }
  if (parent != nullptr) {
    parent->key("scaling").begin_object();
    write_scaling_json(*parent);
    parent->end_object();
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool scaling_only = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scaling") {
      scaling_only = true;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: service_throughput [--scaling [--quick]]\n";
      return 2;
    }
  }
  if (scaling_only) {
    run_scaling(quick, nullptr);
    return 0;
  }
  auto json_file = bench::open_bench_json("service_throughput");
  util::JsonWriter json(json_file);
  json.begin_object();
  json.kv("bench", "service_throughput");
  bench::write_provenance(json);
  json.kv("width", kWidth);
  json.kv("window", bench::window_9999(kWidth));
  json.kv("producers", kProducers);

  bench::banner(
      "Batching ablation — saturating load, workers x scheduler batch");
  util::Table batching({"workers", "batch", "requests", "Mreq/s"});
  json.key("batching").begin_array();
  double rate_batch1_at8 = 0.0, rate_batch64_at8 = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    for (int max_batch : {1, kBatch}) {
      // The batch-1 scheduler pays a full queue transaction, clock tick
      // and telemetry round per request — give it a smaller request
      // count so the sweep stays quick.
      const long long requests = max_batch == 1 ? 120'000 : 480'000;
      const auto point = measure_throughput(workers, max_batch, requests);
      if (workers == 8 && max_batch == 1) {
        rate_batch1_at8 = point.requests_per_sec;
      }
      if (workers == 8 && max_batch != 1) {
        rate_batch64_at8 = point.requests_per_sec;
      }
      batching.add_row({std::to_string(point.workers),
                        std::to_string(point.max_batch),
                        std::to_string(point.requests),
                        util::Table::num(point.requests_per_sec / 1e6, 2)});
      json.begin_object();
      json.kv("workers", point.workers).kv("max_batch", point.max_batch);
      json.kv("requests", point.requests).kv("seconds", point.seconds);
      json.kv("requests_per_sec", point.requests_per_sec);
      json.end_object();
    }
  }
  json.end_array();
  batching.print(std::cout);
  const double speedup = rate_batch64_at8 / rate_batch1_at8;
  json.kv("batching_speedup_8_workers", speedup);
  json.kv("meets_5x_floor", speedup >= 5.0);
  std::cout << "batch-64 vs batch-1 scheduler at 8 workers: "
            << util::Table::num(speedup, 1)
            << "x (acceptance floor is 5x)\n";

  bench::banner(
      "Tail latency vs distribution — Poisson arrivals at fixed rate");
  const double rate = 200'000.0;
  util::Table tail({"distribution", "accepted", "rejected", "flag rate",
                    "p50 cyc", "p99 cyc", "p999 cyc", "p99 us (wall)"});
  json.kv("arrival_rate_per_sec", rate);
  std::uint64_t p99_uniform = 0, p99_complementary = 0;
  json.key("tail_latency").begin_array();
  for (auto distribution :
       {workloads::Distribution::Uniform, workloads::Distribution::Correlated,
        workloads::Distribution::Complementary}) {
    auto config = base_config(/*workers=*/4, kBatch);
    config.queue_capacity = 8192;
    config.overflow = service::OverflowPolicy::Reject;
    service::AdderService service(config);
    // The sidecar embeds the full registry snapshot below — carry the
    // build_info identity inside it so trajectory diffs are self-dated.
    bench::register_build_info(service.registry());

    workloads::LoadGenConfig load;
    load.distribution = distribution;
    load.arrival = workloads::ArrivalProcess::Poisson;
    load.rate_per_sec = rate;
    load.requests = 100'000;
    load.seed = 0xcafe;
    const auto report = workloads::run_load_gen(service, load);

    const auto snap = service.registry().snapshot();
    const auto cycles = find_histogram(snap, "service.latency_cycles");
    const auto ns = find_histogram(snap, "service.latency_ns");
    if (distribution == workloads::Distribution::Uniform) {
      p99_uniform = cycles.p99();
    }
    if (distribution == workloads::Distribution::Complementary) {
      p99_complementary = cycles.p99();
    }
    const long long completed = find_counter(snap, "service.completed");
    const double flag_rate =
        completed == 0 ? 0.0
                       : static_cast<double>(
                             find_counter(snap, "service.recovered")) /
                             static_cast<double>(completed);
    tail.add_row({workloads::distribution_name(distribution),
                  std::to_string(report.accepted),
                  std::to_string(report.rejected),
                  util::Table::num(flag_rate, 5),
                  std::to_string(cycles.p50()), std::to_string(cycles.p99()),
                  std::to_string(cycles.p999()),
                  util::Table::num(ns.p99() / 1e3, 1)});
    json.begin_object();
    json.kv("distribution", workloads::distribution_name(distribution));
    json.kv("offered", report.offered).kv("accepted", report.accepted);
    json.kv("rejected", report.rejected);
    json.kv("flag_rate", flag_rate);
    json.kv("p50_cycles", cycles.p50()).kv("p90_cycles", cycles.p90());
    json.kv("p99_cycles", cycles.p99()).kv("p999_cycles", cycles.p999());
    json.kv("max_cycles", cycles.max);
    json.kv("p50_ns", ns.p50()).kv("p99_ns", ns.p99());
    json.kv("p999_ns", ns.p999());
    // Full registry snapshot (every counter/gauge/histogram, buckets and
    // min/max/sum included) so cross-PR trajectory tooling can diff any
    // metric, not just the ones this bench happened to surface.
    json.key("registry");
    snap.write_json(json);
    json.end_object();
  }
  json.end_array();
  json.kv("p99_increasing_uniform_to_complementary",
          p99_uniform < p99_complementary);
  tail.print(std::cout);
  std::cout << "(uniform stays on the one-cycle fast path; complementary "
               "flags ~always and the serial recovery lane queues — the "
               "p99/p999 blowup is recovery-lane congestion, not compute)\n";

  bench::banner("Burstiness — same mean rate, Poisson vs bursty arrivals");
  util::Table burst({"arrival", "accepted", "rejected", "p99 us", "p999 us"});
  json.key("burstiness").begin_array();
  for (auto arrival : {workloads::ArrivalProcess::Poisson,
                       workloads::ArrivalProcess::Bursty}) {
    auto config = base_config(/*workers=*/2, kBatch);
    config.queue_capacity = 512;
    config.overflow = service::OverflowPolicy::Reject;
    service::AdderService service(config);

    workloads::LoadGenConfig load;
    load.distribution = workloads::Distribution::Uniform;
    load.arrival = arrival;
    load.rate_per_sec = 150'000.0;
    load.requests = 100'000;
    load.seed = 0xb0b;
    const auto report = workloads::run_load_gen(service, load);

    const auto snap = service.registry().snapshot();
    const auto ns = find_histogram(snap, "service.latency_ns");
    burst.add_row({workloads::arrival_process_name(arrival),
                   std::to_string(report.accepted),
                   std::to_string(report.rejected),
                   util::Table::num(ns.p99() / 1e3, 1),
                   util::Table::num(ns.p999() / 1e3, 1)});
    json.begin_object();
    json.kv("arrival", workloads::arrival_process_name(arrival));
    json.kv("accepted", report.accepted).kv("rejected", report.rejected);
    json.kv("p99_ns", ns.p99()).kv("p999_ns", ns.p999());
    json.end_object();
  }
  json.end_array();
  burst.print(std::cout);
  std::cout << "(bursts at 8x the mean rate overrun the 512-slot queue: "
               "backpressure turns overload into a rejection rate instead "
               "of unbounded memory)\n";

  bench::banner("Tracing overhead — idle gate vs 1% sampled session");
  // Tracing is compiled in unconditionally; the first row is the cost
  // of the disabled gate (one relaxed load per instrumentation site),
  // the second the cost of a live session at 1% detail sampling.  The
  // observability acceptance bar is < 10% regression for the latter.
  const auto idle = measure_throughput(/*workers=*/4, kBatch, 480'000);
  double sampled_rps = 0.0;
  {
    trace::TraceConfig trace_config;
    trace_config.sample_rate = 0.01;
    trace_config.ring_capacity = std::size_t{1} << 12;
    trace::TraceSession session(trace_config);
    sampled_rps = measure_throughput(/*workers=*/4, kBatch, 480'000)
                      .requests_per_sec;
  }
  const double overhead = 1.0 - sampled_rps / idle.requests_per_sec;
  util::Table tracing({"mode", "Mreq/s"});
  tracing.add_row({"gate only (no session)",
                   util::Table::num(idle.requests_per_sec / 1e6, 2)});
  tracing.add_row({"session @ 1% sampling",
                   util::Table::num(sampled_rps / 1e6, 2)});
  tracing.print(std::cout);
  std::cout << "1% sampling overhead: " << util::Table::num(overhead * 100, 1)
            << "% (bar: < 10%)\n";
  json.kv("tracing_idle_rps", idle.requests_per_sec);
  json.kv("tracing_sampled_1pct_rps", sampled_rps);
  json.kv("tracing_sampled_1pct_overhead", overhead);

  run_scaling(quick, &json);

  json.end_object();
  return 0;
}
