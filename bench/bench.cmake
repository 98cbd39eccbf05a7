# Benchmark harnesses — one binary per reproduced table/figure.  Targets
# are declared here (not via add_subdirectory) so that build/bench/
# contains only the runnable binaries and `for b in build/bench/*` works.
set(VLSA_BENCH_DIR ${CMAKE_BINARY_DIR}/bench)

function(vlsa_add_bench name)
  add_executable(${name} ${PROJECT_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    vlsa_service vlsa_telemetry
    vlsa_sim vlsa_workloads vlsa_crypto vlsa_multiplier vlsa_multiop vlsa_approx vlsa_cpu
    vlsa_core vlsa_adders vlsa_netlist vlsa_analysis vlsa_util)
  target_include_directories(${name} PRIVATE ${PROJECT_SOURCE_DIR}/bench)
  # Provenance for the machine-readable sidecars, so BENCH_*.json
  # trajectories are comparable across PRs (bench_common.hpp writes it
  # via write_provenance).
  vlsa_use_git_sha(${name})
  target_compile_definitions(${name} PRIVATE
    VLSA_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${VLSA_BENCH_DIR})
endfunction()

vlsa_add_bench(table1_longest_run)
vlsa_add_bench(fig8_delay_area)
vlsa_add_bench(theorem1_walk)
vlsa_add_bench(error_rate)
vlsa_add_bench(vlsa_latency)
vlsa_add_bench(ablation_sharing)
vlsa_add_bench(k_sweep)
vlsa_add_bench(crypto_attack)
vlsa_add_bench(multiplier_spec)
vlsa_add_bench(adder_family)

vlsa_add_bench(sw_throughput)
target_link_libraries(sw_throughput PRIVATE benchmark::benchmark)
vlsa_add_bench(avg_settle)
vlsa_add_bench(recovery_ablation)
vlsa_add_bench(multiop_spec)
vlsa_add_bench(fault_coverage)
vlsa_add_bench(approx_zoo)
vlsa_add_bench(processor_study)
vlsa_add_bench(energy_study)
vlsa_add_bench(seq_vlsa)
vlsa_add_bench(service_throughput)
vlsa_add_bench(net_throughput)
target_link_libraries(net_throughput PRIVATE vlsa_net)
