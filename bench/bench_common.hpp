#pragma once
// Shared helpers for the benchmark harnesses.

#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/aca_probability.hpp"
#include "sim/isa.hpp"
#include "telemetry/registry.hpp"
#include "util/json.hpp"

// VLSA_GIT_SHA: the commit being built, rewritten on every build by
// cmake/git_sha.cmake; "unknown" outside a git checkout.
#include "vlsa_git_sha.hpp"

#ifndef VLSA_BUILD_TYPE
#define VLSA_BUILD_TYPE "unknown"
#endif

namespace vlsa::bench {

/// The paper's Fig. 8 sweep.
inline std::vector<int> paper_widths() {
  return {64, 128, 256, 512, 1024, 2048};
}

/// Window of the "99.99% accurate ACA" design point used throughout the
/// paper's evaluation: smallest k with P(flag) <= 1e-4 on uniform inputs.
inline int window_9999(int width) {
  return analysis::choose_window(width, 1e-4);
}

/// Section banner for the combined bench log.
inline void banner(const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
}

/// Worker threads for the batch Monte-Carlo driver (tallies are
/// thread-count independent; this only sets the wall clock).
inline int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Machine-readable results sidecar: `<name>.bench.json` in the working
/// directory (gitignored).  Scripts diff these across PRs for the
/// throughput/accuracy trajectory.
inline std::ofstream open_bench_json(const std::string& name) {
  const std::string path = name + ".bench.json";
  std::ofstream out(path);
  std::cout << "(machine-readable results -> " << path << ")\n";
  return out;
}

/// Provenance block for the sidecars: which commit and build type
/// produced the numbers, and how parallel the machine was — without
/// these, cross-PR trajectory diffs compare apples to oranges.  Call
/// right after the opening `begin_object()`.
inline void write_provenance(util::JsonWriter& json) {
  json.key("provenance").begin_object();
  json.kv("git_sha", VLSA_GIT_SHA);
  json.kv("build_type", VLSA_BUILD_TYPE);
  json.kv("hardware_threads", default_threads());
  // Which SIMD tier the batch engine dispatches on (scalar/avx2/avx512
  // — honors VLSA_FORCE_ISA) and the lanes one evaluation advances.
  // Throughput numbers are incomparable across tiers without these.
  json.kv("isa", sim::isa_name(sim::active_isa()));
  json.kv("engine_lanes", sim::active_lanes());
  json.end_object();
}

/// Register the `build_info` info metric — the same provenance block
/// as write_provenance, but carried *inside* the registry, so it rides
/// every surface a snapshot reaches: the Prometheus exporter renders
/// it as `vlsa_build_info{git_sha=...,build_type=...,isa=...,
/// engine_lanes=...} 1` (what /metrics and scrape-time identity
/// checks key on) and registry JSON sidecars gain an "infos" block.
inline void register_build_info(telemetry::Registry& registry) {
  registry.info("build_info",
                {{"git_sha", VLSA_GIT_SHA},
                 {"build_type", VLSA_BUILD_TYPE},
                 {"isa", sim::isa_name(sim::active_isa())},
                 {"engine_lanes", std::to_string(sim::active_lanes())}});
}

}  // namespace vlsa::bench
