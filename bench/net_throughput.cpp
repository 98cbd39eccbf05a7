// End-to-end throughput and latency of the network front-end: the same
// width-1024 speculative-addition service measured twice —
//
//   1. In-process baseline — pipelined future submission straight into
//      AdderService with a bounded completion window (the same loop
//      shape as one network client); the rate is what the batching
//      scheduler and SIMD engine can do with zero transport cost.
//   2. Loopback TCP — the same saturating offered load pushed through
//      net/server.hpp by run_load_gen_net with >= 8 pipelined
//      connections; every request pays framing, two socket crossings,
//      and the epoll event path.
//
// The acceptance floor (ISSUE 7): the loopback rate must hold >= 50%
// of the in-process rate.  Both sides are measured in the same run on
// the same machine, so the ratio is transport cost, not machine skew.
//
// Latency is reported end-to-end from the client (`netclient.e2e_ns`:
// send() to matching response) and per-stage from the server
// (`net.read_ns` / `net.decode_ns` / `net.server_ns` / `net.write_ns`),
// so a regression can be attributed to a stage, not just observed.
// `net.server_ns` runs from dispatch to the response encoded on the
// event loop, so it includes the service, the hand-back of the finished
// request to the loop and the encode.
//
// Results land in net_throughput.bench.json (gitignored trajectory
// sidecar) and BENCH_net.json — the committed copy of the latter
// records the reference machine's numbers, like BENCH_simd.json.

#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "telemetry/registry.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workloads/load_gen.hpp"
#include "workloads/operand_stream.hpp"

namespace {

using namespace vlsa;

constexpr int kWidth = 1024;
constexpr long long kRequests = 1 << 16;
constexpr int kConnections = 8;

service::ServiceConfig service_config() {
  service::ServiceConfig config;
  config.pipeline.width = kWidth;
  config.pipeline.window = bench::window_9999(kWidth);
  config.workers = 1;
  config.max_batch = 64;
  config.queue_capacity = 4096;
  config.overflow = service::OverflowPolicy::Block;
  config.record_wall_time = false;  // e2e latency is the client's view
  return config;
}

telemetry::HistogramSnapshot find_histogram(const telemetry::Snapshot& snap,
                                            const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h;
  }
  return {};
}

workloads::LoadGenConfig saturate_config() {
  workloads::LoadGenConfig config;
  config.distribution = workloads::Distribution::Uniform;
  config.arrival = workloads::ArrivalProcess::Saturate;
  config.requests = kRequests;
  config.seed = 0x4e31ULL;
  return config;
}

void write_stage(util::JsonWriter& json, const std::string& key,
                 const telemetry::HistogramSnapshot& h) {
  json.key(key).begin_object();
  json.kv("count", static_cast<long long>(h.count));
  json.kv("p50_ns", static_cast<long long>(h.p50()));
  json.kv("p99_ns", static_cast<long long>(h.p99()));
  json.kv("p999_ns", static_cast<long long>(h.p999()));
  json.end_object();
}

}  // namespace

int main() {
  std::cout << "net_throughput: loopback TCP vs in-process submission\n"
            << "width " << kWidth << ", window "
            << bench::window_9999(kWidth) << ", " << kRequests
            << " requests, " << kConnections << " connections\n";

  // -- 1. In-process baseline ----------------------------------------
  // The same loop shape as one pipelined network client: submit with a
  // bounded completion window and consume every result.  (An open-loop
  // driver that never reads completions would overstate the baseline —
  // the socket path cannot drop results on the floor.)
  bench::banner("in-process baseline (pipelined futures, Block policy)");
  double inproc_rate = 0.0;
  {
    service::AdderService service(service_config());
    workloads::OperandStream operands(workloads::Distribution::Uniform,
                                      kWidth, 0x4e31ULL);
    std::deque<std::future<service::Completion>> window;
    const auto t0 = std::chrono::steady_clock::now();
    for (long long i = 0; i < kRequests; ++i) {
      auto [a, b] = operands.next();
      auto ticket = service.submit(std::move(a), std::move(b));
      if (ticket.has_value()) window.push_back(std::move(*ticket));
      while (window.size() >= 512) {
        window.front().get();
        window.pop_front();
      }
    }
    while (!window.empty()) {
      window.front().get();
      window.pop_front();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    service.close();
    inproc_rate = seconds > 0.0 ? double(kRequests) / seconds : 0.0;
    std::cout << "  completed " << kRequests << " in " << seconds
              << " s -> " << inproc_rate << " req/s\n";
  }

  // -- 2. Loopback TCP ------------------------------------------------
  bench::banner("loopback TCP (8 pipelined connections)");
  double net_rate = 0.0;
  workloads::NetLoadGenReport net_report;
  telemetry::HistogramSnapshot e2e, read_ns, decode_ns, write_ns, server_ns;
  {
    service::AdderService service(service_config());
    bench::register_build_info(service.registry());
    net::ServerConfig server_config;
    server_config.event_threads = 1;  // the acceptor is its own thread
    net::Server server(server_config, service);

    telemetry::Registry client_registry;
    bench::register_build_info(client_registry);
    workloads::NetLoadGenConfig config;
    config.base = saturate_config();
    config.host = "127.0.0.1";
    config.port = server.port();
    config.width = kWidth;
    config.connections = kConnections;
    config.max_outstanding = 512;
    config.registry = &client_registry;
    net_report = workloads::run_load_gen_net(config);
    server.shutdown();
    service.close();

    net_rate = net_report.achieved_rate;
    e2e = find_histogram(client_registry.snapshot(), "netclient.e2e_ns");
    const auto snap = service.registry().snapshot();
    read_ns = find_histogram(snap, "net.read_ns");
    decode_ns = find_histogram(snap, "net.decode_ns");
    write_ns = find_histogram(snap, "net.write_ns");
    server_ns = find_histogram(snap, "net.server_ns");
  }

  const double ratio = inproc_rate > 0.0 ? net_rate / inproc_rate : 0.0;
  const bool meets_floor = ratio >= 0.5;

  util::Table table({"path", "req/s", "p50 us", "p99 us", "p999 us"});
  table.add_row({"in-process", util::Table::num(inproc_rate, 0), "-", "-",
                 "-"});
  table.add_row({"loopback", util::Table::num(net_rate, 0),
                 util::Table::num(e2e.p50() / 1e3, 1),
                 util::Table::num(e2e.p99() / 1e3, 1),
                 util::Table::num(e2e.p999() / 1e3, 1)});
  table.print(std::cout);
  std::cout << "  ok " << net_report.ok << ", rejected "
            << net_report.rejected << ", errors " << net_report.errors
            << ", recovered " << net_report.recovered << "\n"
            << "  loopback / in-process = " << ratio
            << (meets_floor ? "  (>= 0.5 floor: PASS)"
                            : "  (>= 0.5 floor: FAIL)")
            << "\n";

  util::Table stages(
      {"server stage", "count", "p50 us", "p99 us", "p999 us"});
  const auto stage_row = [&](const char* name,
                             const telemetry::HistogramSnapshot& h) {
    stages.add_row({name, util::Table::num(double(h.count), 0),
                    util::Table::num(h.p50() / 1e3, 1),
                    util::Table::num(h.p99() / 1e3, 1),
                    util::Table::num(h.p999() / 1e3, 1)});
  };
  stage_row("read", read_ns);
  stage_row("decode", decode_ns);
  stage_row("service+hand-back+encode", server_ns);
  stage_row("write", write_ns);
  stages.print(std::cout);

  const auto write_results = [&](util::JsonWriter& json,
                                 const std::string& bench_name) {
    json.begin_object();
    json.kv("bench", bench_name);
    bench::write_provenance(json);
    json.kv("width", kWidth);
    json.kv("window", bench::window_9999(kWidth));
    json.kv("requests", kRequests);
    json.kv("connections", kConnections);
    json.kv("max_outstanding", 512);
    json.kv("inproc_requests_per_sec", inproc_rate);
    json.kv("net_requests_per_sec", net_rate);
    json.kv("net_over_inproc", ratio);
    json.kv("meets_0_5_floor", meets_floor);
    json.kv("ok", net_report.ok);
    json.kv("rejected", net_report.rejected);
    json.kv("errors", net_report.errors);
    json.kv("recovered", net_report.recovered);
    json.key("e2e_ns").begin_object();
    json.kv("count", static_cast<long long>(e2e.count));
    json.kv("p50", static_cast<long long>(e2e.p50()));
    json.kv("p99", static_cast<long long>(e2e.p99()));
    json.kv("p999", static_cast<long long>(e2e.p999()));
    json.end_object();
    json.key("server_stages").begin_object();
    write_stage(json, "read_ns", read_ns);
    write_stage(json, "decode_ns", decode_ns);
    write_stage(json, "server_ns", server_ns);
    write_stage(json, "write_ns", write_ns);
    json.end_object();
    json.end_object();
  };

  {
    auto out = bench::open_bench_json("net_throughput");
    util::JsonWriter json(out);
    write_results(json, "net_throughput");
  }
  {
    // Standing baseline for the perf trajectory: BENCH_net.json holds
    // the end-to-end socket-path numbers the way BENCH_simd.json holds
    // the SIMD tiers (the committed copy records the reference machine).
    std::ofstream net_file("BENCH_net.json");
    std::cout << "(network baseline -> BENCH_net.json)\n";
    util::JsonWriter json(net_file);
    write_results(json, "BENCH_net");
  }
  return 0;
}
