// vlsa_tool — the repository's EDA toolbox as one command-line program.
//
//   vlsa_tool stats    <circuit> <width> [k]       timing/area/structure
//   vlsa_tool lint     <circuit> <width> [k] [--fanout-cap N] [--strict]
//                      [--swept]                   structural sanity pass;
//                                                  exit 0 clean, 3 findings
//   vlsa_tool emit     <circuit> <width> [k] --verilog|--vhdl|--dot|--text
//   vlsa_tool equiv    <circuit-a> <circuit-b> <width> [k]
//   vlsa_tool prove    <circuit-a> <circuit-b> <width> [k] [--conflicts N]
//                                                  SAT proof of equivalence;
//                                                  exit 0 proven, 2 counter-
//                                                  example, 4 budget exceeded
//   vlsa_tool prove    speculation|recovery|vlsa <width> [k] [--conflicts N]
//                                                  paper obligations: ACA+ER
//                                                  vs exact under flag=0,
//                                                  recovery-path exactness,
//                                                  or both ("vlsa")
//   vlsa_tool faults   <circuit> <width> [k]       stuck-at coverage
//   vlsa_tool settle   <circuit> <width> [k]       average-case delay
//   vlsa_tool datasheet <width> <accuracy>         size a VLSA design
//   vlsa_tool serve    <width> [k] [obs flags]     add "<hex-a> <hex-b>"
//                                                  lines from stdin via the
//                                                  arithmetic service
//   vlsa_tool serve    <width> [k] --listen host:port [--workers W
//                      --queue Q --policy block|reject --threads T]
//                      [--shards N --route hash|rr]
//                      [--admin host:port] [--drain-grace-ms N]
//                      [obs flags]                 epoll TCP server speaking
//                                                  the binary framing of
//                                                  docs/networking.md;
//                                                  SIGINT/SIGTERM drains and
//                                                  exits 0, dumping the
//                                                  telemetry registry as
//                                                  Prometheus text on stdout.
//                                                  --admin serves the live
//                                                  admin plane (/metrics,
//                                                  /healthz, /readyz,
//                                                  /statusz, /tracez,
//                                                  /driftz, /postmortemz);
//                                                  --drain-grace-ms keeps the
//                                                  data port serving N ms
//                                                  after /readyz flips to 503
//                                                  (lame-duck window)
//   vlsa_tool loadgen  <width> [k] [--rate R --dist D --arrival A
//                      --requests N --workers W --batch B --queue Q
//                      --policy block|reject --seed S --json PATH]
//                      [--shards N --route hash|rr]
//                      [obs flags]                 drive the service with
//                                                  synthetic load, report
//                                                  tail latencies
//   vlsa_tool loadgen  <width> [k] --connect host:port [--connections C
//                      --outstanding O --rate R --dist D --arrival A
//                      --requests N --seed S --json PATH]
//                                                  the same arrival streams
//                                                  offered over TCP to a
//                                                  `serve --listen` process
//   vlsa_tool trace    <width> [k] [loadgen flags] loadgen with tracing on
//                                                  (default --trace-out
//                                                  trace.json)
//   vlsa_tool trace    --merge <a.json> <b.json> [...] [--out PATH]
//                                                  stitch per-process trace
//                                                  exports (e.g. a loadgen
//                                                  client and a serve
//                                                  process) into one Perfetto
//                                                  timeline, aligned on the
//                                                  metadata epoch_ns
//   vlsa_tool stats service <width> [k] [--requests N --dist D
//                      --format json|prom]         run a quick load, dump
//                                                  the telemetry registry
//
// Observability flags (serve / loadgen / trace):
//   --trace-out PATH          Chrome/Perfetto trace_event JSON
//   --trace-sample R          detail-event sample rate in [0,1] (default 1)
//   --trace-ring N            events retained per thread (default 16384)
//   --metrics-out PATH        Prometheus exposition text, rewritten
//                             periodically by a background reporter
//   --metrics-interval-ms N   reporter period (default 1000)
//   --postmortem-out PATH     last-N ER=1 operand dump as JSON
//   --postmortem-cap N        postmortem ring capacity (default 64)
//   --drift-window N          ER drift-monitor window (default 16384)
//
// <circuit> is an adder architecture name (ripple-carry, kogge-stone,
// brent-kung, ...), "aca", "errdet", "vlsa", or a multiplier —
// "mul-exact", "mul-aca", "mul-booth" (k-taking circuits default to the
// 99.99% design window).

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adders/adders.hpp"
#include "analysis/aca_probability.hpp"
#include "core/aca_netlist.hpp"
#include "core/vlsa.hpp"
#include "multiplier/spec_multiplier.hpp"
#include "netlist/dot.hpp"
#include "netlist/emit.hpp"
#include "netlist/equiv.hpp"
#include "netlist/event_sim.hpp"
#include "netlist/fault.hpp"
#include "netlist/formal/miter.hpp"
#include "netlist/lint.hpp"
#include "netlist/opt.hpp"
#include "netlist/serialize.hpp"
#include "netlist/sta.hpp"
#include "net/admin.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "sim/isa.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/registry.hpp"
#include "trace/drift.hpp"
#include "trace/merge.hpp"
#include "trace/postmortem.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"
#include "workloads/load_gen.hpp"
#include "workloads/operand_stream.hpp"

// Build provenance: VLSA_GIT_SHA is the commit being built, rewritten
// on every build by cmake/git_sha.cmake ("unknown" outside a git
// checkout); VLSA_BUILD_TYPE is set by examples/CMakeLists.txt.
#include "vlsa_git_sha.hpp"

#ifndef VLSA_BUILD_TYPE
#define VLSA_BUILD_TYPE "unknown"
#endif

namespace {

using vlsa::netlist::Netlist;

std::optional<vlsa::adders::AdderKind> adder_kind_by_name(
    const std::string& name) {
  for (auto kind : vlsa::adders::all_adder_kinds()) {
    if (name == vlsa::adders::adder_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

// Build any named circuit at the given width/window.
Netlist build_circuit(const std::string& name, int width, int window) {
  if (const auto kind = adder_kind_by_name(name)) {
    return vlsa::adders::build_adder(*kind, width).nl;
  }
  if (name == "aca") {
    return vlsa::core::build_aca(width, window, false).nl;
  }
  if (name == "aca+er") {
    return vlsa::core::build_aca(width, window, true).nl;
  }
  if (name == "errdet") {
    return vlsa::core::build_error_detector(width, window).nl;
  }
  if (name == "vlsa") {
    return vlsa::core::build_vlsa(width, window).nl;
  }
  if (name == "mul-exact") {
    return vlsa::multiplier::build_exact_multiplier(width).nl;
  }
  if (name == "mul-aca") {
    return vlsa::multiplier::build_speculative_multiplier(width, window).nl;
  }
  if (name == "mul-booth") {
    return vlsa::multiplier::build_booth_multiplier(width, window).nl;
  }
  throw std::invalid_argument(
      "unknown circuit '" + name +
      "' (adder name, aca, aca+er, errdet, vlsa, mul-exact, mul-aca or "
      "mul-booth)");
}

int cmd_stats(const Netlist& nl) {
  const auto timing = vlsa::netlist::analyze_timing(nl);
  const auto area = vlsa::netlist::analyze_area(nl);
  const auto structure = vlsa::netlist::analyze_structure(nl);
  std::cout << nl.module_name() << ":\n"
            << "  delay        " << timing.critical_delay_ns << " ns ("
            << timing.logic_levels << " logic levels)\n"
            << "  area         " << area.total_area << " NAND2-eq ("
            << area.num_cells << " cells)\n"
            << "  max fanout   " << area.max_fanout << " (inputs: "
            << area.max_input_fanout << ")\n"
            << "  dead gates   " << structure.dead_gates << "\n";
  return 0;
}

// Structural sanity pass.  Default bar: no Error-severity findings
// (generators legitimately carry dead logic pre-sweep); `--strict`
// requires a completely clean report, `--swept` lints the netlist after
// dead-logic elimination (the post-synthesis view every shipped
// generator must keep spotless), `--fanout-cap N` enables the fanout
// check.  Exit code 0 = passed, 3 = findings above the bar.
int cmd_lint(const Netlist& nl, const std::vector<std::string>& args,
             std::size_t next) {
  vlsa::netlist::LintOptions options;
  bool strict = false;
  bool swept = false;
  for (std::size_t i = next; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--strict") {
      strict = true;
    } else if (flag == "--swept") {
      swept = true;
    } else if (flag == "--fanout-cap") {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for --fanout-cap");
      }
      options.fanout_cap = std::stoi(args[++i]);
    } else {
      throw std::invalid_argument("unknown lint flag '" + flag + "'");
    }
  }
  const Netlist* target = &nl;
  Netlist swept_nl("swept");
  if (swept) {
    swept_nl = vlsa::netlist::remove_dead_gates(nl);
    target = &swept_nl;
  }
  const auto report = vlsa::netlist::lint(*target, options);
  std::cout << report.to_string();
  std::cout << nl.module_name() << (swept ? " (swept)" : "") << ": "
            << report.errors << " error(s), " << report.warnings
            << " warning(s) over " << target->num_nets() << " nets\n";
  const bool ok = strict ? report.clean() : report.structurally_sound();
  return ok ? 0 : 3;
}

int cmd_emit(const Netlist& nl, const std::string& format) {
  if (format == "--verilog") {
    std::cout << vlsa::netlist::to_verilog(nl);
  } else if (format == "--vhdl") {
    std::cout << vlsa::netlist::to_vhdl(nl);
  } else if (format == "--dot") {
    const auto timing = vlsa::netlist::analyze_timing(nl);
    std::cout << vlsa::netlist::to_dot(nl, timing.critical_path);
  } else if (format == "--text") {
    std::cout << vlsa::netlist::to_text(nl);
  } else {
    std::cerr << "unknown format " << format << "\n";
    return 1;
  }
  return 0;
}

int cmd_equiv(const Netlist& a, const Netlist& b) {
  const auto result = vlsa::netlist::check_equivalence(a, b, 8192);
  if (result.equivalent) {
    std::cout << "EQUIVALENT (" << result.vectors_checked << " vectors"
              << (result.exhaustive ? ", exhaustive" : "") << ")\n";
    return 0;
  }
  std::cout << "NOT equivalent: " << result.failure_message << "\n";
  return 2;
}

// Run one formal proof obligation and report it.  Exit code 0 = proven,
// 2 = counterexample (operands printed as hex, replayable through
// `vlsa_tool serve` or the simulator), 4 = conflict budget exceeded.
int run_proof(const std::string& label, const Netlist& lhs,
              const Netlist& rhs,
              const vlsa::netlist::formal::MiterSpec& spec,
              const vlsa::netlist::formal::FormalOptions& options) {
  namespace formal = vlsa::netlist::formal;
  const auto start = std::chrono::steady_clock::now();
  const auto result = formal::check_equivalence_formal(lhs, rhs, spec,
                                                       options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << label << ": " << result.summary() << " [" << seconds
            << " s]\n";
  if (result.verdict == formal::FormalVerdict::Counterexample) {
    const auto a = formal::counterexample_bus(lhs, result.counterexample,
                                              "a");
    const auto b = formal::counterexample_bus(lhs, result.counterexample,
                                              "b");
    std::cout << "  counterexample operands: a=0x" << a.to_hex() << " b=0x"
              << b.to_hex() << "\n";
    return 2;
  }
  if (result.verdict == formal::FormalVerdict::Unknown) return 4;
  return 0;
}

// `vlsa_tool prove` — SAT-certified equivalence.  Two shapes:
//   prove <circuit-a> <circuit-b> <width> [k]   unconditional miter
//   prove speculation|recovery|vlsa <width> [k] the paper's obligations
int cmd_prove(const std::vector<std::string>& args) {
  namespace formal = vlsa::netlist::formal;
  if (args.size() < 3) {
    std::cerr << "usage: vlsa_tool prove <a> <b> <width> [k] "
                 "[--conflicts N]\n"
                 "       vlsa_tool prove speculation|recovery|vlsa <width> "
                 "[k] [--conflicts N]\n";
    return 1;
  }
  const std::string& mode = args[1];
  const bool obligation =
      mode == "speculation" || mode == "recovery" || mode == "vlsa";
  const std::size_t width_pos = obligation ? 2 : 3;
  if (args.size() < width_pos + 1) {
    std::cerr << "usage: vlsa_tool prove " << mode
              << (obligation ? " <width> [k]" : " <b> <width> [k]") << "\n";
    return 1;
  }
  const int width = std::stoi(args[width_pos]);
  int k = vlsa::analysis::choose_window(width, 1e-4);
  std::size_t next = width_pos + 1;
  if (args.size() > next && args[next][0] != '-') {
    k = std::stoi(args[next]);
    ++next;
  }
  formal::FormalOptions options;
  for (std::size_t i = next; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + flag);
    }
    if (flag == "--conflicts") {
      options.conflict_limit = std::stoll(args[i + 1]);
    } else {
      throw std::invalid_argument("unknown prove flag '" + flag + "'");
    }
  }

  const Netlist exact =
      vlsa::adders::build_adder(vlsa::adders::AdderKind::RippleCarry, width)
          .nl;
  if (mode == "speculation" || mode == "vlsa") {
    // The paper's theorem 1: whenever the error flag is 0, the ACA sum
    // equals the exact sum.  flag=0 is assumed; the flag port itself is
    // excluded from comparison.
    const Netlist aca = vlsa::core::build_aca(width, k, true).nl;
    vlsa::netlist::formal::MiterSpec spec;
    spec.assume_zero = {"error"};
    const int rc = run_proof("speculation(flag=0) width " +
                                 std::to_string(width) + " k " +
                                 std::to_string(k),
                             aca, exact, spec, options);
    if (rc != 0 || mode == "speculation") return rc;
  }
  if (mode == "recovery" || mode == "vlsa") {
    // The recovery path must be exact for every input, flagged or not:
    // compare the VLSA datapath's final sum/cout against a plain adder,
    // skipping its extra outputs (speculative bus, error, valid).
    const Netlist vlsa_nl = vlsa::core::build_vlsa(width, k).nl;
    vlsa::netlist::formal::MiterSpec spec;
    spec.ignore_unmatched_outputs = true;
    return run_proof("recovery width " + std::to_string(width) + " k " +
                         std::to_string(k),
                     vlsa_nl, exact, spec, options);
  }
  // Pairwise: two named circuits, all outputs compared.
  return run_proof(mode + " vs " + args[2],
                   build_circuit(mode, width, k),
                   build_circuit(args[2], width, k), {}, options);
}

int cmd_faults(const Netlist& nl) {
  const auto coverage = vlsa::netlist::measure_fault_coverage(nl, 32, 0xf1);
  std::cout << nl.module_name() << ": " << coverage.detected << "/"
            << coverage.total_faults << " single-stuck-at faults detected ("
            << coverage.coverage * 100 << "% with 32x64 random vectors)\n";
  return 0;
}

int cmd_settle(const Netlist& nl) {
  const auto timing = vlsa::netlist::analyze_timing(nl);
  const auto stats = vlsa::netlist::measure_settle_distribution(nl, 400, 7);
  std::cout << nl.module_name() << ": static " << timing.critical_delay_ns
            << " ns; settle mean " << stats.mean_ns << " ns, p99 "
            << stats.p99_ns << " ns, max " << stats.max_ns
            << " ns; mean switching energy " << stats.mean_energy_fj
            << " fJ/op\n";
  return 0;
}

// ---------------------------------------------------------------------
// Graceful stop: SIGINT/SIGTERM set a flag the serving loops poll.  No
// SA_RESTART, deliberately — a blocking stdin read (the in-process serve
// mode) returns EINTR, the stream ends, and that mode also drains
// whatever it accepted and exits 0.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

// "host:port" -> parts (the port may be 0 = kernel-assigned).
std::pair<std::string, std::uint16_t> parse_hostport(const std::string& s) {
  const auto pos = s.rfind(':');
  if (pos == std::string::npos || pos == 0 || pos + 1 >= s.size()) {
    throw std::invalid_argument("expected host:port, got '" + s + "'");
  }
  const int port = std::stoi(s.substr(pos + 1));
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("port out of range in '" + s + "'");
  }
  return {s.substr(0, pos), static_cast<std::uint16_t>(port)};
}

// Register the `build_info` info metric: the Prometheus exporter
// renders it as `vlsa_build_info{git_sha=...,build_type=...,isa=...,
// engine_lanes=...} 1`, so every scrape (and the drain-time dump)
// carries the identity of the binary that produced the numbers.
void register_build_info(vlsa::telemetry::Registry& registry) {
  registry.info("build_info",
                {{"git_sha", VLSA_GIT_SHA},
                 {"build_type", VLSA_BUILD_TYPE},
                 {"isa", vlsa::sim::isa_name(vlsa::sim::active_isa())},
                 {"engine_lanes",
                  std::to_string(vlsa::sim::active_lanes())}});
}

// Zero-extend a parsed operand to the service width.
vlsa::util::BitVec pad_to(const vlsa::util::BitVec& v, int width) {
  if (v.width() == width) return v;
  vlsa::util::BitVec out(width);
  for (std::size_t i = 0; i < v.limbs().size(); ++i) {
    out.limbs()[i] = v.limbs()[i];
  }
  return out;
}

// Observability knobs shared by the service-facing subcommands
// (serve / loadgen / trace).  Everything is off by default except the
// drift monitor, which is cheap enough (one lock per batch) to always
// run; artifacts land on disk, drift log lines on stderr.
struct ObsOptions {
  std::string trace_out;
  double trace_sample = 1.0;
  std::size_t trace_ring = std::size_t{1} << 14;
  std::string metrics_out;
  long long metrics_interval_ms = 1000;
  std::string postmortem_out;
  std::size_t postmortem_cap = 64;
  std::uint64_t drift_window = std::uint64_t{1} << 14;

  bool tracing() const { return !trace_out.empty(); }

  /// True when any on-disk artifact was requested; `serve` keeps its
  /// stderr pure-JSON (telemetry snapshot only) unless this is set.
  bool any_artifacts() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !postmortem_out.empty();
  }
};

// Returns true when `flag` is an observability flag (value consumed).
bool parse_obs_flag(ObsOptions& obs, const std::string& flag,
                    const std::string& value) {
  if (flag == "--trace-out") {
    obs.trace_out = value;
  } else if (flag == "--trace-sample") {
    obs.trace_sample = std::stod(value);
  } else if (flag == "--trace-ring") {
    obs.trace_ring = static_cast<std::size_t>(std::stoull(value));
  } else if (flag == "--metrics-out") {
    obs.metrics_out = value;
  } else if (flag == "--metrics-interval-ms") {
    obs.metrics_interval_ms = std::stoll(value);
  } else if (flag == "--postmortem-out") {
    obs.postmortem_out = value;
  } else if (flag == "--postmortem-cap") {
    obs.postmortem_cap = static_cast<std::size_t>(std::stoull(value));
  } else if (flag == "--drift-window") {
    obs.drift_window = std::stoull(value);
  } else {
    return false;
  }
  return true;
}

// Returns true when `flag` is a sharding flag (value consumed) —
// shared by serve and loadgen (docs/scaling.md).
bool parse_shard_flag(vlsa::service::ServiceConfig& config,
                      const std::string& flag, const std::string& value) {
  if (flag == "--shards") {
    config.shards = std::stoi(value);
  } else if (flag == "--route") {
    if (value == "hash") {
      config.route = vlsa::service::RoutePolicy::Hash;
    } else if (value == "rr") {
      config.route = vlsa::service::RoutePolicy::RoundRobin;
    } else {
      throw std::invalid_argument("unknown route '" + value +
                                  "' (hash, rr)");
    }
  } else {
    return false;
  }
  return true;
}

// Assembles the optional observability pieces around one service run:
// trace session, drift monitor, postmortem ring, metrics reporter.
// Construct before the AdderService, call attach() on its config, and
// finish() after flush to write the requested artifacts.
class Observability {
 public:
  Observability(const ObsOptions& obs, vlsa::telemetry::Registry& registry,
                int width, int window)
      : obs_(obs), postmortem_(obs.postmortem_cap) {
    vlsa::trace::DriftConfig drift_config;
    drift_config.width = width;
    drift_config.k = window;
    drift_config.window = obs.drift_window;
    drift_ = std::make_unique<vlsa::trace::DriftMonitor>(drift_config,
                                                         &registry,
                                                         &std::cerr);
    if (obs.tracing()) {
      vlsa::trace::TraceConfig trace_config;
      trace_config.sample_rate = obs.trace_sample;
      trace_config.ring_capacity = obs.trace_ring;
      session_ = std::make_unique<vlsa::trace::TraceSession>(trace_config);
    }
    if (!obs.metrics_out.empty()) {
      reporter_ = std::make_unique<vlsa::telemetry::MetricsReporter>(
          registry, obs.metrics_out,
          std::chrono::milliseconds(obs.metrics_interval_ms));
    }
  }

  void attach(vlsa::service::ServiceConfig& config) {
    config.postmortem = &postmortem_;
    config.drift = drift_.get();
  }

  /// Stop recording and write the requested artifacts; `status` gets
  /// one human-readable line per artifact plus the drift verdict.
  void finish(std::ostream& status) {
    if (session_ != nullptr) {
      session_->stop();
      std::ofstream out(obs_.trace_out);
      if (!out) {
        throw std::runtime_error("cannot open " + obs_.trace_out);
      }
      const auto stats = session_->write_chrome_json(out);
      status << "  trace     -> " << obs_.trace_out << " (" << stats.events
             << " events, " << stats.dropped << " dropped, " << stats.threads
             << " threads)\n";
    }
    if (reporter_ != nullptr) {
      reporter_->stop();  // final write included
      status << "  metrics   -> " << obs_.metrics_out << " ("
             << reporter_->writes() << " periodic writes)\n";
    }
    if (!obs_.postmortem_out.empty()) {
      std::ofstream out(obs_.postmortem_out);
      if (!out) {
        throw std::runtime_error("cannot open " + obs_.postmortem_out);
      }
      out << postmortem_.to_json() << "\n";
      status << "  postmortem-> " << obs_.postmortem_out << " ("
             << postmortem_.total_recorded() << " ER=1 requests captured)\n";
    }
    const auto drift = drift_->status();
    status << "  drift     " << drift.windows_out_of_band << "/"
           << drift.windows << " windows out of band (expected ER "
           << drift.expected << ", last observed " << drift.last_observed
           << ")\n";
  }

  // Admin-plane accessors (/driftz, /postmortemz, /tracez): the
  // handlers run on the admin thread, and each of these is safe there
  // (DriftMonitor and PostmortemRing are internally locked; session()
  // only hands out the pointer — the session itself is thread-safe to
  // export while recording).
  vlsa::trace::DriftStatus drift_status() const { return drift_->status(); }
  std::string postmortem_json() const { return postmortem_.to_json(); }
  vlsa::trace::TraceSession* session() { return session_.get(); }

 private:
  const ObsOptions obs_;
  vlsa::trace::PostmortemRing postmortem_;
  std::unique_ptr<vlsa::trace::DriftMonitor> drift_;
  std::unique_ptr<vlsa::trace::TraceSession> session_;
  std::unique_ptr<vlsa::telemetry::MetricsReporter> reporter_;
};

// Additions over stdin: each line "<hex-a> <hex-b>" (TraceStream text
// format, '#' comments allowed) is served through the arithmetic
// service; stdout gets "<hex-sum> <flagged> <latency-cycles>" per
// request in input order, stderr the telemetry snapshot as JSON.
// `serve --listen`: bind the epoll TCP front-end (net/server.hpp) on
// the given address and run until SIGINT/SIGTERM, then drain — stop
// accepting, let in-flight requests complete, flush responses and
// observability artifacts — and exit 0.  stdout carries exactly one
// "listening on host:port" line up front (the CI smoke test parses the
// bound port out of it) and the final telemetry registry as Prometheus
// exposition text after the drain.
// Wire the standard admin endpoint set (docs/observability.md) onto an
// AdminServer.  Everything captured by reference outlives the admin
// server: serve_network shuts it down before the service block ends.
void wire_admin_endpoints(vlsa::net::AdminServer& admin_server,
                          vlsa::telemetry::Registry& registry,
                          vlsa::net::Server& server,
                          Observability& observability,
                          const ObsOptions& obs,
                          const vlsa::service::ServiceConfig& config,
                          int width, int window, int event_threads,
                          std::chrono::steady_clock::time_point started,
                          std::mutex& tracez_mutex,
                          std::unique_ptr<vlsa::trace::TraceSession>&
                              tracez_session) {
  const auto text = [](int status, std::string body) {
    vlsa::net::AdminResponse response;
    response.status = status;
    response.body = std::move(body);
    return response;
  };
  const auto json_response = [](std::string body) {
    vlsa::net::AdminResponse response;
    response.content_type = "application/json";
    response.body = std::move(body);
    return response;
  };
  // Readiness is the lame-duck signal: it must flip the moment drain
  // is *requested* (the signal flag), before Server::shutdown() starts
  // closing connections — g_stop leads, server.draining() covers
  // programmatic shutdown.
  const auto ready = [&server] {
    return !g_stop.load(std::memory_order_relaxed) && !server.draining();
  };

  admin_server.handle("/metrics", [&registry](const auto&) {
    std::ostringstream os;
    vlsa::telemetry::write_prometheus(registry.snapshot(), os);
    vlsa::net::AdminResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = os.str();
    return response;
  });
  admin_server.handle("/healthz",
                      [text](const auto&) { return text(200, "ok\n"); });
  admin_server.handle("/readyz", [text, ready](const auto&) {
    return ready() ? text(200, "ready\n") : text(503, "draining\n");
  });
  admin_server.handle(
      "/statusz",
      [json_response, ready, &server, &config, width, window, event_threads,
       started](const auto&) {
        std::ostringstream os;
        vlsa::util::JsonWriter json(os);
        json.begin_object();
        json.kv("git_sha", VLSA_GIT_SHA);
        json.kv("build_type", VLSA_BUILD_TYPE);
        json.kv("isa", vlsa::sim::isa_name(vlsa::sim::active_isa()));
        json.kv("engine_lanes", vlsa::sim::active_lanes());
        json.kv("width", width);
        json.kv("window", window);
        json.kv("workers", config.workers);
        json.kv("shards", config.shards);
        json.kv("route",
                config.route == vlsa::service::RoutePolicy::Hash ? "hash"
                                                                 : "rr");
        json.kv("queue_capacity",
                static_cast<unsigned long long>(config.queue_capacity));
        json.kv("overflow_policy",
                config.overflow == vlsa::service::OverflowPolicy::Block
                    ? "block"
                    : "reject");
        json.kv("event_threads", event_threads);
        json.kv("listen", server.address());
        json.kv("active_connections",
                static_cast<unsigned long long>(server.active_connections()));
        json.kv("uptime_s",
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started)
                    .count());
        json.kv("ready", ready());
        json.end_object();
        os << "\n";
        return json_response(os.str());
      });
  admin_server.handle(
      "/tracez",
      [text, json_response, &observability, &obs, &tracez_mutex,
       &tracez_session](const vlsa::net::AdminRequest& request) {
        std::lock_guard<std::mutex> lock(tracez_mutex);
        if (request.query == "start") {
          if (tracez_session != nullptr ||
              observability.session() != nullptr) {
            return text(409, "a trace session is already active\n");
          }
          vlsa::trace::TraceConfig trace_config;
          trace_config.sample_rate = obs.trace_sample;
          trace_config.ring_capacity = obs.trace_ring;
          try {
            tracez_session =
                std::make_unique<vlsa::trace::TraceSession>(trace_config);
          } catch (const std::logic_error&) {
            return text(409, "a trace session is already active\n");
          }
          return text(200, "tracing started\n");
        }
        vlsa::trace::TraceSession* session = tracez_session != nullptr
                                                 ? tracez_session.get()
                                                 : observability.session();
        if (session == nullptr) {
          return text(409, "no active trace session\n");
        }
        if (request.query == "stop") session->stop();
        std::ostringstream os;
        session->write_chrome_json(os);
        // ?stop tears the admin-owned session down after the export so
        // a later ?start can begin a fresh window; a --trace-out
        // session stays (serve still owns its artifact on drain).
        if (request.query == "stop" && tracez_session != nullptr) {
          tracez_session.reset();
        }
        return json_response(os.str());
      });
  admin_server.handle("/driftz", [json_response,
                                  &observability](const auto&) {
    const auto drift = observability.drift_status();
    std::ostringstream os;
    vlsa::util::JsonWriter json(os);
    json.begin_object();
    json.kv("total", drift.total);
    json.kv("flagged", drift.flagged);
    json.kv("windows", drift.windows);
    json.kv("windows_out_of_band", drift.windows_out_of_band);
    json.kv("expected", drift.expected);
    json.kv("last_observed", drift.last_observed);
    json.kv("last_z", drift.last_z);
    json.kv("out_of_band", drift.out_of_band);
    json.end_object();
    os << "\n";
    return json_response(os.str());
  });
  admin_server.handle("/postmortemz",
                      [json_response, &observability](const auto&) {
                        return json_response(
                            observability.postmortem_json() + "\n");
                      });
}

int serve_network(int width, int window, const std::string& listen,
                  const std::string& admin, long long drain_grace_ms,
                  vlsa::service::ServiceConfig config, int event_threads,
                  const ObsOptions& obs) {
  vlsa::telemetry::Registry registry;
  register_build_info(registry);
  Observability observability(obs, registry, width, window);
  observability.attach(config);
  {
    vlsa::service::AdderService service(config, &registry);
    vlsa::net::ServerConfig server_config;
    const auto [host, port] = parse_hostport(listen);
    server_config.host = host;
    server_config.port = port;
    server_config.event_threads = event_threads;
    vlsa::net::Server server(server_config, service);
    install_stop_handlers();
    std::cout << "listening on " << server.address() << std::endl;

    // The admin plane (declared after the server/observability it
    // captures, so its thread is joined before they die).
    std::mutex tracez_mutex;
    std::unique_ptr<vlsa::trace::TraceSession> tracez_session;
    std::unique_ptr<vlsa::net::AdminServer> admin_server;
    const auto started = std::chrono::steady_clock::now();
    if (!admin.empty()) {
      vlsa::net::AdminConfig admin_config;
      const auto [admin_host, admin_port] = parse_hostport(admin);
      admin_config.host = admin_host;
      admin_config.port = admin_port;
      admin_server = std::make_unique<vlsa::net::AdminServer>(admin_config);
      wire_admin_endpoints(*admin_server, registry, server, observability,
                           obs, config, width, window, event_threads,
                           started, tracez_mutex, tracez_session);
      std::cout << "admin on " << admin_server->address() << std::endl;
    }

    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (drain_grace_ms > 0) {
      // Lame-duck window: /readyz already answers 503 (it reads
      // g_stop), the data port keeps serving — load balancers get
      // drain_grace_ms to reroute before connections start closing.
      std::cerr << "serve: lame-duck for " << drain_grace_ms << " ms\n";
      std::this_thread::sleep_for(
          std::chrono::milliseconds(drain_grace_ms));
    }
    std::cerr << "serve: draining (" << server.active_connections()
              << " connections active)\n";
    server.shutdown();
    service.close();
    vlsa::telemetry::write_prometheus(registry.snapshot(), std::cout);
    if (admin_server != nullptr) {
      admin_server->shutdown();
    }
    {
      std::lock_guard<std::mutex> lock(tracez_mutex);
      tracez_session.reset();
    }
  }
  if (obs.any_artifacts()) {
    observability.finish(std::cerr);
  }
  return 0;
}

int cmd_serve(int width, int window, const std::vector<std::string>& args,
              std::size_t next) {
  ObsOptions obs;
  std::string listen;
  std::string admin;
  long long drain_grace_ms = 0;
  vlsa::service::ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 1;
  config.queue_capacity = 1024;
  int event_threads = 2;
  for (std::size_t i = next; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string& value = args[i + 1];
    if (flag == "--listen") {
      listen = value;
    } else if (flag == "--admin") {
      admin = value;
    } else if (flag == "--drain-grace-ms") {
      drain_grace_ms = std::stoll(value);
    } else if (flag == "--workers") {
      config.workers = std::stoi(value);
    } else if (flag == "--queue") {
      config.queue_capacity = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--policy") {
      if (value == "block") {
        config.overflow = vlsa::service::OverflowPolicy::Block;
      } else if (value == "reject") {
        config.overflow = vlsa::service::OverflowPolicy::Reject;
      } else {
        throw std::invalid_argument("unknown policy '" + value +
                                    "' (block, reject)");
      }
    } else if (flag == "--threads") {
      event_threads = std::stoi(value);
    } else if (!parse_shard_flag(config, flag, value) &&
               !parse_obs_flag(obs, flag, value)) {
      throw std::invalid_argument("unknown serve flag '" + flag + "'");
    }
  }
  if (!listen.empty()) {
    return serve_network(width, window, listen, admin, drain_grace_ms,
                         config, event_threads, obs);
  }
  if (!admin.empty()) {
    throw std::invalid_argument("--admin requires --listen");
  }
  install_stop_handlers();  // SIGINT: stdin read ends, we drain + exit 0
  std::ostringstream buffer;
  buffer << std::cin.rdbuf();
  auto trace = vlsa::workloads::TraceStream::from_text(buffer.str());
  if (trace.width() > width) {
    throw std::invalid_argument("trace operands are wider (" +
                                std::to_string(trace.width()) +
                                " bits) than the service width");
  }
  vlsa::telemetry::Registry registry;
  Observability observability(obs, registry, width, window);
  observability.attach(config);
  {
    vlsa::service::AdderService service(config, &registry);
    std::vector<std::future<vlsa::service::Completion>> futures;
    futures.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      auto [a, b] = trace.next();
      auto future = service.submit(pad_to(a, width), pad_to(b, width));
      futures.push_back(std::move(*future));  // Block policy: always accepted
    }
    service.flush();
    for (auto& future : futures) {
      const auto completion = future.get();
      std::cout << completion.sum.to_hex() << " "
                << (completion.flagged ? 1 : 0) << " "
                << completion.latency_cycles << "\n";
    }
    std::cerr << service.registry().snapshot().to_json() << "\n";
  }
  if (obs.any_artifacts()) {
    observability.finish(std::cerr);
  }
  return 0;
}

int cmd_loadgen(int width, int window,
                const std::vector<std::string>& args, std::size_t next,
                bool force_trace = false) {
  vlsa::service::ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 2;
  vlsa::workloads::LoadGenConfig load;
  std::string json_path;
  std::string connect;
  int connections = 4;
  int outstanding = 256;
  ObsOptions obs;
  auto need = [&](std::size_t i, const std::string& flag) -> const std::string& {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + flag);
    }
    return args[i + 1];
  };
  for (std::size_t i = next; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    const std::string& value = need(i, flag);
    if (flag == "--rate") {
      load.rate_per_sec = std::stod(value);
    } else if (flag == "--dist") {
      bool found = false;
      for (auto d : vlsa::workloads::all_distributions()) {
        if (value == vlsa::workloads::distribution_name(d)) {
          load.distribution = d;
          found = true;
        }
      }
      if (!found) {
        throw std::invalid_argument("unknown distribution '" + value + "'");
      }
    } else if (flag == "--arrival") {
      if (value == "poisson") {
        load.arrival = vlsa::workloads::ArrivalProcess::Poisson;
      } else if (value == "bursty") {
        load.arrival = vlsa::workloads::ArrivalProcess::Bursty;
      } else if (value == "saturate") {
        load.arrival = vlsa::workloads::ArrivalProcess::Saturate;
      } else {
        throw std::invalid_argument("unknown arrival process '" + value +
                                    "' (poisson, bursty, saturate)");
      }
    } else if (flag == "--requests") {
      load.requests = std::stoll(value);
    } else if (flag == "--workers") {
      config.workers = std::stoi(value);
    } else if (flag == "--batch") {
      config.max_batch = std::stoi(value);
    } else if (flag == "--queue") {
      config.queue_capacity = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--policy") {
      if (value == "block") {
        config.overflow = vlsa::service::OverflowPolicy::Block;
      } else if (value == "reject") {
        config.overflow = vlsa::service::OverflowPolicy::Reject;
      } else {
        throw std::invalid_argument("unknown policy '" + value +
                                    "' (block, reject)");
      }
    } else if (flag == "--seed") {
      load.seed = std::stoull(value);
    } else if (flag == "--json") {
      json_path = value;
    } else if (flag == "--connect") {
      connect = value;
    } else if (flag == "--connections") {
      connections = std::stoi(value);
    } else if (flag == "--outstanding") {
      outstanding = std::stoi(value);
    } else if (!parse_shard_flag(config, flag, value) &&
               !parse_obs_flag(obs, flag, value)) {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  // `vlsa_tool trace` is loadgen with tracing on by default (both the
  // in-process and --connect modes).
  if (force_trace && obs.trace_out.empty()) obs.trace_out = "trace.json";
  if (!connect.empty()) {
    // Network mode: the service lives in another process (`vlsa_tool
    // serve --listen`); everything here is client-side.  With tracing
    // on, the client's sampling decision rides the wire (the
    // kFlagTraceSampled frame bit), so this export pairs with the
    // server's for `vlsa_tool trace --merge`.
    install_stop_handlers();  // SIGINT: stop offering, drain, exit
    vlsa::workloads::NetLoadGenConfig net_config;
    net_config.base = load;
    const auto [host, port] = parse_hostport(connect);
    net_config.host = host;
    net_config.port = port;
    net_config.width = width;
    net_config.connections = connections;
    net_config.max_outstanding = outstanding;
    net_config.stop = &g_stop;
    vlsa::telemetry::Registry registry;
    net_config.registry = &registry;
    std::unique_ptr<vlsa::trace::TraceSession> session;
    if (obs.tracing()) {
      vlsa::trace::TraceConfig trace_config;
      trace_config.sample_rate = obs.trace_sample;
      trace_config.ring_capacity = obs.trace_ring;
      session = std::make_unique<vlsa::trace::TraceSession>(trace_config);
    }
    const auto report = vlsa::workloads::run_load_gen_net(net_config);
    std::cout << "loadgen(net): " << connect << " x " << connections
              << " connections, "
              << vlsa::workloads::distribution_name(load.distribution)
              << " x "
              << vlsa::workloads::arrival_process_name(load.arrival)
              << " @ " << load.rate_per_sec << "/s, width " << width << "\n"
              << "  offered   " << report.offered << "\n"
              << "  ok        " << report.ok << "\n"
              << "  rejected  " << report.rejected << "\n"
              << "  errors    " << report.errors << "\n"
              << "  recovered " << report.recovered << "\n"
              << "  achieved  " << report.achieved_rate << " req/s over "
              << report.seconds << " s\n";
    // Client-observed end-to-end latency, per arrival phase (the phase
    // is decided at send time — see load_gen.hpp).  The burst line
    // only exists for Bursty arrivals.
    const auto snap = registry.snapshot();
    const auto e2e_line = [&snap](const char* label, const char* name) {
      for (const auto& h : snap.histograms) {
        if (h.name == name && h.count > 0) {
          std::cout << "  " << label << " p50 " << h.p50() << ", p99 "
                    << h.p99() << ", p999 " << h.p999() << ", max "
                    << h.max << " (n=" << h.count << ")\n";
        }
      }
    };
    e2e_line("e2e ns (all)   ", "netclient.e2e_ns");
    e2e_line("e2e ns (steady)", "netclient.e2e_steady_ns");
    e2e_line("e2e ns (burst) ", "netclient.e2e_burst_ns");
    if (session != nullptr) {
      session->stop();
      std::ofstream out(obs.trace_out);
      if (!out) {
        throw std::runtime_error("cannot open " + obs.trace_out);
      }
      const auto stats = session->write_chrome_json(out);
      std::cout << "  trace     -> " << obs.trace_out << " ("
                << stats.events << " events, " << stats.dropped
                << " dropped, " << stats.threads << " threads)\n";
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        throw std::runtime_error("cannot open " + json_path);
      }
      out << snap.to_json() << "\n";
      std::cout << "  telemetry -> " << json_path << "\n";
    }
    return report.errors > 0 ? 1 : 0;
  }
  vlsa::telemetry::Registry registry;
  Observability observability(obs, registry, width, window);
  observability.attach(config);
  vlsa::telemetry::Snapshot snap;
  vlsa::workloads::LoadGenReport report;
  {
    vlsa::service::AdderService service(config, &registry);
    report = vlsa::workloads::run_load_gen(service, load);
    snap = service.registry().snapshot();
  }
  std::cout << "loadgen: " << vlsa::workloads::distribution_name(
                                  load.distribution)
            << " x " << vlsa::workloads::arrival_process_name(load.arrival)
            << " @ " << load.rate_per_sec << "/s, width " << width
            << ", window " << window << "\n"
            << "  offered   " << report.offered << "\n"
            << "  accepted  " << report.accepted << "\n"
            << "  rejected  " << report.rejected << "\n"
            << "  achieved  " << report.achieved_rate << " req/s over "
            << report.seconds << " s\n";
  // Per-phase backpressure: rejections (Reject policy) and producer
  // stall time (Block policy) no longer collapse into one number.
  const auto phase_line = [](const char* name,
                             const vlsa::workloads::PhaseStats& phase) {
    std::cout << "  " << name << "    offered " << phase.offered
              << ", accepted " << phase.accepted << ", rejected "
              << phase.rejected << ", submit stall " << phase.submit_stall_s
              << " s\n";
  };
  phase_line("steady", report.steady);
  if (load.arrival == vlsa::workloads::ArrivalProcess::Bursty) {
    phase_line("burst ", report.burst);
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "service.latency_cycles" ||
        h.name == "service.latency_ns") {
      std::cout << "  " << h.name << ": p50 " << h.p50() << ", p90 "
                << h.p90() << ", p99 " << h.p99() << ", p999 " << h.p999()
                << ", max " << h.max << "\n";
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      throw std::runtime_error("cannot open " + json_path);
    }
    out << snap.to_json() << "\n";
    std::cout << "  telemetry -> " << json_path << "\n";
  }
  observability.finish(std::cout);
  return 0;
}

// `vlsa_tool trace --merge a.json b.json [...] [--out PATH]` — stitch
// per-process Chrome trace exports into one Perfetto timeline.  Each
// source becomes its own pid with a process_name label; timestamps are
// aligned on the `metadata.epoch_ns` every export stamps (the shared
// steady-clock epoch), and stderr reports how many request ids were
// seen on more than one side — the distributed-trace join working.
int cmd_trace_merge(const std::vector<std::string>& args) {
  std::vector<vlsa::trace::MergeInput> inputs;
  std::string out_path;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for --out");
      }
      out_path = args[++i];
    } else {
      std::ifstream in(args[i]);
      if (!in) {
        throw std::runtime_error("cannot open " + args[i]);
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      inputs.push_back({args[i], buffer.str()});
    }
  }
  if (inputs.size() < 2) {
    std::cerr << "usage: vlsa_tool trace --merge <a.json> <b.json> [...] "
                 "[--out PATH]\n";
    return 1;
  }
  vlsa::trace::MergeStats stats;
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      throw std::runtime_error("cannot open " + out_path);
    }
    stats = vlsa::trace::merge(inputs, out);
    std::cerr << "merged -> " << out_path << "\n";
  } else {
    stats = vlsa::trace::merge(inputs, std::cout);
  }
  std::cerr << "merged " << stats.sources << " traces, " << stats.events
            << " events, " << stats.matched_reqs
            << " request id(s) matched across sources\n";
  return 0;
}

// `vlsa_tool stats service` — run a quick synthetic load and dump the
// full telemetry registry, as deterministic JSON (pump mode, fixed
// seed) or Prometheus exposition text.
int cmd_stats_service(int width, int window,
                      const std::vector<std::string>& args,
                      std::size_t next) {
  long long requests = 1 << 15;
  auto distribution = vlsa::workloads::Distribution::Uniform;
  std::string format = "json";
  for (std::size_t i = next; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string& value = args[i + 1];
    if (flag == "--requests") {
      requests = std::stoll(value);
    } else if (flag == "--dist") {
      bool found = false;
      for (auto d : vlsa::workloads::all_distributions()) {
        if (value == vlsa::workloads::distribution_name(d)) {
          distribution = d;
          found = true;
        }
      }
      if (!found) {
        throw std::invalid_argument("unknown distribution '" + value + "'");
      }
    } else if (flag == "--format") {
      if (value != "json" && value != "prom") {
        throw std::invalid_argument("unknown format '" + value +
                                    "' (json, prom)");
      }
      format = value;
    } else {
      throw std::invalid_argument("unknown stats flag '" + flag + "'");
    }
  }
  // Pump mode + wall clock off: the snapshot is bit-identical for a
  // fixed seed, so `stats service` output is diffable run to run.
  vlsa::service::ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 0;
  config.record_wall_time = false;
  vlsa::telemetry::Registry registry;
  vlsa::trace::DriftConfig drift_config;
  drift_config.width = width;
  drift_config.k = window;
  vlsa::trace::DriftMonitor drift(drift_config, &registry, &std::cerr);
  config.drift = &drift;
  {
    vlsa::service::AdderService service(config, &registry);
    vlsa::workloads::OperandStream stream(distribution, width, 0x57a7);
    for (long long i = 0; i < requests; ++i) {
      auto [a, b] = stream.next();
      if (!service.submit(a, b).has_value()) {
        service.pump();  // pump-mode queue full: drain and retry once
        service.submit(std::move(a), std::move(b));
      }
    }
    service.flush();
  }
  const auto snap = registry.snapshot();
  if (format == "prom") {
    vlsa::telemetry::write_prometheus(snap, std::cout);
  } else {
    std::cout << snap.to_json() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) {
      std::cerr << "usage: vlsa_tool "
                   "stats|lint|emit|equiv|prove|faults|settle|datasheet|"
                   "serve|loadgen|trace ...\n";
      return 1;
    }
    const std::string& cmd = args[0];
    if (cmd == "trace" && args.size() > 1 && args[1] == "--merge") {
      return cmd_trace_merge(args);
    }
    const bool stats_service =
        cmd == "stats" && args.size() > 1 && args[1] == "service";
    if (cmd == "serve" || cmd == "loadgen" || cmd == "trace" ||
        stats_service) {
      // `stats service` shifts the positional arguments by one.
      const std::size_t base = stats_service ? 2 : 1;
      if (args.size() < base + 1) {
        std::cerr << "usage: vlsa_tool " << cmd
                  << (stats_service ? " service" : "")
                  << " <width> [k] [flags]\n";
        return 1;
      }
      const int width = std::stoi(args[base]);
      int k = vlsa::analysis::choose_window(width, 1e-4);
      std::size_t next = base + 1;
      if (args.size() > next && args[next][0] != '-') {
        k = std::stoi(args[next]);
        ++next;
      }
      if (stats_service) return cmd_stats_service(width, k, args, next);
      if (cmd == "serve") return cmd_serve(width, k, args, next);
      return cmd_loadgen(width, k, args, next,
                         /*force_trace=*/cmd == "trace");
    }
    if (cmd == "datasheet") {
      if (args.size() < 3) {
        std::cerr << "usage: vlsa_tool datasheet <width> <accuracy>\n";
        return 1;
      }
      std::cout << vlsa::core::VlsaDesign::design(std::stoi(args[1]),
                                                  std::stod(args[2]))
                       .datasheet();
      return 0;
    }
    if (cmd == "prove") {
      return cmd_prove(args);
    }
    if (cmd == "equiv") {
      if (args.size() < 4) {
        std::cerr << "usage: vlsa_tool equiv <a> <b> <width> [k]\n";
        return 1;
      }
      const int width = std::stoi(args[3]);
      const int k = args.size() > 4
                        ? std::stoi(args[4])
                        : vlsa::analysis::choose_window(width, 1e-4);
      return cmd_equiv(build_circuit(args[1], width, k),
                       build_circuit(args[2], width, k));
    }
    if (args.size() < 3) {
      std::cerr << "usage: vlsa_tool " << cmd << " <circuit> <width> [k]\n";
      return 1;
    }
    const int width = std::stoi(args[2]);
    int k = vlsa::analysis::choose_window(width, 1e-4);
    std::size_t next = 3;
    if (args.size() > next && args[next][0] != '-') {
      k = std::stoi(args[next]);
      ++next;
    }
    const Netlist nl = build_circuit(args[1], width, k);
    if (cmd == "stats") return cmd_stats(nl);
    if (cmd == "lint") return cmd_lint(nl, args, next);
    if (cmd == "emit") {
      return cmd_emit(nl, args.size() > next ? args[next] : "--verilog");
    }
    if (cmd == "faults") return cmd_faults(nl);
    if (cmd == "settle") return cmd_settle(nl);
    std::cerr << "unknown command " << cmd << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
