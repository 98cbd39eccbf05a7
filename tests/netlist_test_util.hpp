#pragma once
// Shared helpers for driving generated netlists in tests and benches.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "util/bitvec.hpp"

namespace vlsa::testing {

using util::BitVec;

/// Result of simulating one operand pair through an adder-like netlist.
struct AdderSimResult {
  BitVec sum;
  bool carry_out = false;
};

/// Simulate `ops` (any count; internally batched 64 lanes at a time)
/// through a two-operand netlist.  `cout` may be kNoNet.
inline std::vector<AdderSimResult> run_adder_netlist(
    const netlist::Netlist& nl, const std::vector<netlist::NetId>& a_bus,
    const std::vector<netlist::NetId>& b_bus,
    const std::vector<netlist::NetId>& sum_bus, netlist::NetId cout,
    const std::vector<std::pair<BitVec, BitVec>>& ops) {
  const netlist::Simulator sim(nl);
  const std::vector<int> index = netlist::stim::input_index_map(nl);
  std::vector<AdderSimResult> results(ops.size());
  for (std::size_t base = 0; base < ops.size(); base += 64) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(64, ops.size() - base));
    std::vector<std::uint64_t> stim(nl.inputs().size(), 0);
    for (int lane = 0; lane < lanes; ++lane) {
      const auto& [a, b] = ops[base + static_cast<std::size_t>(lane)];
      netlist::stim::load_operand(stim, index, a_bus, a, lane);
      netlist::stim::load_operand(stim, index, b_bus, b, lane);
    }
    const std::vector<std::uint64_t> values = sim.eval(stim);
    for (int lane = 0; lane < lanes; ++lane) {
      auto& r = results[base + static_cast<std::size_t>(lane)];
      r.sum = netlist::stim::read_bus(values, sum_bus, lane);
      if (cout != netlist::kNoNet) {
        r.carry_out =
            (values[static_cast<std::size_t>(cout)] >> lane) & 1;
      }
    }
  }
  return results;
}

/// Read one single-bit net for every lane of a previously prepared
/// simulation — convenience for flags like "error"/"valid".
inline bool net_bit(const std::vector<std::uint64_t>& values,
                    netlist::NetId net, int lane) {
  return (values[static_cast<std::size_t>(net)] >> lane) & 1;
}

/// How build_run_mask_aca builds the k-propagate run mask R_k.
enum class RunMaskBuild {
  /// In-place AND-doubling over runs of length 1, 2, 4, ... (zeros
  /// shift in below bit k-1), as sim/row_kernel.cpp builds it.
  Doubling,
  /// Block prefix/suffix ANDs, as sim/wide_kernel.hpp builds it: for
  /// i = q*k + j, R_k[i] = S_{q-1}[j+1] & P_q[j], with P_q[j] the AND
  /// of p over offsets 0..j of block q and S_{q-1}[j+1] the AND over
  /// offsets j+1..k-1 of block q-1 (all ones at j = k-1, zero before
  /// the first block completes).
  BlockWindow,
};

/// The batch engine's evaluation (sim/wide_kernel.hpp) as a gate
/// netlist, ports named as core::build_aca(width, window, true) names
/// them: exact ripple carries c_e, the run mask R_k built as `how`
/// says, speculative carries c_s = c_e & ~R_k, sum[i] = p[i] ^ c_s[i-1],
/// cout = c_s[n-1] and error = OR R_k.
inline netlist::Netlist build_run_mask_aca(int width, int window,
                                           RunMaskBuild how) {
  netlist::Netlist nl("run_mask_aca" + std::to_string(width) + "_k" +
                      std::to_string(window));
  const auto a = nl.add_input_bus("a", width);
  const auto b = nl.add_input_bus("b", width);
  const auto n = static_cast<std::size_t>(width);
  std::vector<netlist::NetId> p(n), exact(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = nl.xor2(a[i], b[i]);
    const netlist::NetId g = nl.and2(a[i], b[i]);
    exact[i] = i == 0 ? g : nl.or2(g, nl.and2(p[i], exact[i - 1]));
  }
  std::vector<netlist::NetId> run = p;
  if (how == RunMaskBuild::Doubling) {
    for (int t = 1; t < window;) {
      const auto s = static_cast<std::size_t>(std::min(t, window - t));
      for (std::size_t i = n; i-- > 0;) {
        run[i] = i >= s ? nl.and2(run[i], run[i - s]) : nl.const0();
      }
      t += static_cast<int>(s);
    }
  } else {
    const auto k = static_cast<std::size_t>(window);
    // suffix[j] = S_{q-1}[j] for the block before the current one.
    std::vector<netlist::NetId> suffix(k, nl.const0());
    for (std::size_t i0 = 0; i0 < n; i0 += k) {
      netlist::NetId prefix = netlist::kNoNet;
      for (std::size_t j = 0; j < k && i0 + j < n; ++j) {
        prefix = j == 0 ? p[i0] : nl.and2(prefix, p[i0 + j]);
        run[i0 + j] = j + 1 == k ? prefix : nl.and2(suffix[j + 1], prefix);
      }
      if (i0 + k <= n) {
        suffix[k - 1] = p[i0 + k - 1];
        for (std::size_t j = k - 1; j-- > 0;) {
          suffix[j] = nl.and2(p[i0 + j], suffix[j + 1]);
        }
      }
    }
  }
  std::vector<netlist::NetId> sum(n);
  netlist::NetId spec = netlist::kNoNet;  // c_s[i-1]
  netlist::NetId error = nl.const0();
  for (std::size_t i = 0; i < n; ++i) {
    sum[i] = i == 0 ? p[0] : nl.xor2(p[i], spec);
    spec = nl.and2(exact[i], nl.inv(run[i]));
    error = nl.or2(error, run[i]);
  }
  nl.mark_output_bus("sum", sum);
  nl.mark_output(spec, "cout");
  nl.mark_output(error, "error");
  return nl;
}

}  // namespace vlsa::testing
