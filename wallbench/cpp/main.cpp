// wallbench: one run of one workload.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace 0
//   wallbench_traced --workload <name> --seed <n> --seconds <s> --trace 1
//       [--untraced-rps <r>] [--spans-out <file>]
//
// Prints notes on stderr; on stdout a line {"provenance", "detail"}
// (detail: figures never gated on, such as p99s and sample counts) and,
// as the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer metrics
// traced.  run.py builds the programs and drives them.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "sim/isa.hpp"

namespace {

using namespace wallbench;

struct Named {
  const char* name;
  const char* unit;
};

constexpr Named kEndToEnd[] = {
    {"throughput_rps", "1/s"},
    {"unloaded_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Every traced run reports each of these; a layer a workload does not
/// exercise reads 0.
constexpr Named kPerLayer[] = {
    {"host.loop_ns", "ns"},
    {"host.ivcs_per_s", "1/s"},
    {"host.steal_frac", "ratio"},
    {"trace.throughput_rps", "1/s"},
    {"trace.untraced_throughput_rps", "1/s"},
    {"trace.overhead_frac", "ratio"},
    {"phase.requests", "count"},
    {"phase.seconds", "s"},
    {"analysis.choose_window_ms", "ms"},
    {"sim.lanes", "count"},
    {"sim.pack_ns", "ns"},
    {"sim.eval_ns", "ns"},
    {"sim.unpack_ns", "ns"},
    {"sim.fill_ns", "ns"},
    {"util.operand_copy_ns", "ns"},
    {"util.exact_add_ns", "ns"},
    {"service.threads", "count"},
    {"service.cores", "cores"},
    {"service.max_thread_busy", "ratio"},
    {"service.cpu_ns", "ns"},
    {"service.sys_frac", "ratio"},
    {"service.batch_mean", "count"},
    {"service.flag_frac", "ratio"},
    {"service.false_alarm_frac", "ratio"},
    {"service.completed", "count"},
    {"service.batches", "count"},
    {"service.recovered", "count"},
    {"service.speculative_wrong", "count"},
    {"program.allocs_per_req", "count"},
    {"program.allocs", "count"},
    {"net.threads", "count"},
    {"net.cores", "cores"},
    {"net.max_thread_busy", "ratio"},
    {"net.cpu_ns", "ns"},
    {"net.sys_frac", "ratio"},
    {"net.frames_per_read", "count"},
    {"net.frames_per_write", "count"},
    {"net.frames_in", "count"},
    {"net.frames_out", "count"},
    {"net.reads", "count"},
    {"net.writes", "count"},
    {"net.read_stalls", "count"},
    {"net.decode_ns", "ns"},
    {"net.encode_ns", "ns"},
    {"client.max_thread_busy", "ratio"},
    {"client.cpu_ns", "ns"},
    {"client.submit_us", "us"},
    {"client.wait_us", "us"},
    {"client.allocs_per_req", "count"},
    {"client.allocs", "count"},
    {"client.sampled_requests", "count"},
    {"mc.cores", "cores"},
    {"mc.calls", "count"},
    {"mc.trials", "count"},
    {"mc.flag_frac", "ratio"},
    {"mc.wrong_frac", "ratio"},
    {"proc.vcs_per_req", "count"},
    {"proc.minflt_per_req", "count"},
    {"unloaded.cpu_us", "us"},
    {"unloaded.requests", "count"},
};

/// `reported` in the order and with the units of `expected`; names a
/// workload does not report read 0.  Throws on a name not in the list.
template <std::size_t N>
std::vector<Metric> canonical(const std::vector<Metric>& reported,
                              const Named (&expected)[N]) {
  for (const auto& m : reported) {
    bool known = false;
    for (const auto& e : expected) known = known || m.name == e.name;
    if (!known) throw std::logic_error("unlisted metric " + m.name);
  }
  std::vector<Metric> out;
  for (const auto& e : expected) {
    Metric metric{e.name, 0.0, e.unit};
    for (const auto& m : reported) {
      if (m.name == e.name) {
        if (m.unit != e.unit) {
          throw std::logic_error("unit mismatch for " + m.name);
        }
        metric.value = m.value;
      }
    }
    out.push_back(metric);
  }
  return out;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "wallbench: " << message
            << "\nusage: wallbench --workload "
               "inproc_uniform|inproc_adversarial|tcp_uniform|mc_uniform "
               "--seed N --seconds S --trace 0|1 [--untraced-rps R] "
               "[--spans-out FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  alloc::mark_bench_thread();
  std::string workload;
  RunOptions options;
  double untraced_rps = 0.0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--untraced-rps") {
        untraced_rps = std::stod(value);
      } else if (arg == "--spans-out") {
        options.spans_out = value;
      } else {
        usage_error("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg);
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    usage_error("--seconds must be in (0, 120]");
  }
  if (options.trace && !alloc::enabled()) {
    usage_error("--trace 1 needs the traced build (wallbench_traced)");
  }
  if (!options.trace && alloc::enabled()) {
    usage_error("--trace 0 needs the untraced build (wallbench)");
  }

  try {
    const Usage u0 = usage();
    const double steal0 = steal_ticks();
    const auto t0 = Clock::now();
    const double loop_ns = host_loop_ns();
    Report report;
    if (workload == "inproc_uniform") {
      report = run_inproc(options, Mix::Uniform);
    } else if (workload == "inproc_adversarial") {
      report = run_inproc(options, Mix::Complementary);
    } else if (workload == "tcp_uniform") {
      report = run_tcp(options);
    } else if (workload == "mc_uniform") {
      report = run_mc(options);
    } else {
      usage_error("unknown workload " + workload);
    }
    if (options.trace) run_probes(options.seed, report);
    const double elapsed = seconds_between(t0, Clock::now());
    const double ivcs_per_s = ratio(usage().ivcs - u0.ivcs, elapsed);
    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    const double tick_hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
    const double steal_frac =
        ratio(steal_ticks() - steal0,
              tick_hz * static_cast<double>(nproc) * elapsed);
    if (options.trace) {
      report.layer("host.loop_ns", loop_ns, "ns");
      report.layer("host.ivcs_per_s", ivcs_per_s, "1/s");
      report.layer("host.steal_frac", steal_frac, "ratio");
      if (untraced_rps > 0.0) {
        double traced = 0.0;
        for (const auto& m : report.per_layer) {
          if (m.name == "trace.throughput_rps") traced = m.value;
        }
        report.layer("trace.untraced_throughput_rps", untraced_rps, "1/s");
        report.layer("trace.overhead_frac", 1.0 - traced / untraced_rps,
                     "ratio");
      }
    }
    for (const auto& line : report.notes) {
      std::cerr << workload << ": " << line << "\n";
    }
    const auto metrics = options.trace
                             ? canonical(report.per_layer, kPerLayer)
                             : canonical(report.end_to_end, kEndToEnd);
    const bool correct = report.failed == 0;
    std::cout << "{\"provenance\": {\"workload\": \"" << workload
              << "\", \"seed\": " << options.seed
              << ", \"seconds\": " << options.seconds
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"nproc\": " << nproc
              << ", \"isa\": \"" << vlsa::sim::isa_name(vlsa::sim::active_isa())
              << "\", \"lanes\": " << vlsa::sim::active_lanes()
              << ", \"build_type\": \"" << WALLBENCH_BUILD_TYPE
              << "\", \"host_loop_ns\": " << loop_ns
              << ", \"host_ivcs_per_s\": " << ivcs_per_s
              << ", \"host_steal_frac\": " << steal_frac
              << "}, \"detail\": " << metrics_json(report.detail) << "}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed
              << ", \"metrics\": " << metrics_json(metrics) << "}"
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wallbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }
}
