// Isolated stage probes, traced runs only.  Each probe times one public
// function at the service's batch shape — width 1024, k from
// choose_window, one full batch of sim::active_lanes() lanes — cycling
// through 64 distinct batches (4 MiB of operands at 256 lanes, more
// than the per-core L2) and reports the median batch time per request.
// The probes read only WideResult::sum_spec, flagged and wrong, and
// check what they compute.
#include <cstring>

#include "analysis/aca_probability.hpp"
#include "bench.hpp"
#include "net/protocol.hpp"
#include "sim/batch_engine.hpp"
#include "sim/isa.hpp"
#include "util/rng.hpp"

namespace wallbench {

namespace {

namespace sim = vlsa::sim;
namespace net = vlsa::net;

constexpr int kBatches = 64;
constexpr double kProbeS = 0.15;
constexpr int kMinReps = 32;

/// Keeps the probed work observable to the optimizer.
volatile std::uint64_t g_sink = 0;

/// Median wall time in ns of `fn(rep)` over at least kMinReps calls and
/// at least kProbeS seconds.
template <class Fn>
double median_ns(Fn&& fn) {
  std::vector<double> ns;
  const auto start = Clock::now();
  for (int rep = 0;
       rep < kMinReps || seconds_between(start, Clock::now()) < kProbeS;
       ++rep) {
    const auto t0 = Clock::now();
    fn(rep);
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9);
  }
  return median(ns);
}

bool lane_bit(const std::vector<std::uint64_t>& mask, int lane) {
  return ((mask[static_cast<std::size_t>(lane >> 6)] >> (lane & 63)) & 1) != 0;
}

/// A request frame written from the documented wire layout (32-byte
/// little-endian header, then a and b), independent of the program's
/// own request encoder.
void append_request_frame(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const BitVec& a, const BitVec& b) {
  const std::size_t operand = (kWidth + 7) / 8;
  auto put = [&](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(net::kMagic, 4);
  put(net::kVersion, 1);
  put(1, 1);  // type: request
  put(0, 1);  // op: add
  put(0, 1);  // flags
  put(id, 8);
  put(kWidth, 2);
  put(0, 2);  // window: server default
  put(2 * operand, 4);
  put(0, 8);  // latency ticks
  for (const BitVec* v : {&a, &b}) {
    for (std::size_t i = 0; i < operand; ++i) {
      const std::uint64_t limb = v->limbs()[i / 8];
      out.push_back(static_cast<std::uint8_t>(limb >> (8 * (i % 8))));
    }
  }
}

}  // namespace

void run_probes(std::uint64_t seed, Report& report) {
  const int lanes = sim::active_lanes();
  const auto batch = static_cast<std::size_t>(lanes);
  const int window = vlsa::analysis::choose_window(kWidth, kMaxFlagProbability);
  const Pool pool = make_pool(Mix::Uniform, derive_seed(seed, 0x9b0be),
                              batch * kBatches);
  std::uint64_t checked = 0, bad = 0;
  std::uint64_t sink = 0;

  std::vector<std::vector<std::pair<BitVec, BitVec>>> pairs(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    for (std::size_t j = 0; j < batch; ++j) {
      pairs[i].emplace_back(pool.a[i * batch + j], pool.b[i * batch + j]);
    }
  }

  // sim: pack, eval, unpack at the service's batch shape.
  std::vector<sim::WideBatch> packed(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    packed[i] = sim::wide_transpose_batch(pairs[i], kWidth, lanes);
  }
  const double pack_ns = median_ns([&](int rep) {
    const auto i = static_cast<std::size_t>(rep % kBatches);
    packed[i] = sim::wide_transpose_batch(pairs[i], kWidth, lanes);
  });
  std::vector<sim::WideResult> results(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    sim::wide_aca_add_into(packed[i], window, nullptr, results[i]);
  }
  const double eval_ns = median_ns([&](int rep) {
    const auto i = static_cast<std::size_t>(rep % kBatches);
    sim::wide_aca_add_into(packed[i], window, nullptr, results[i]);
  });
  const double unpack_ns = median_ns([&](int rep) {
    const auto i = static_cast<std::size_t>(rep % kBatches);
    const auto sums = sim::wide_lane_values(results[i].sum_spec, kWidth, lanes);
    sink += sums[static_cast<std::size_t>(rep) % batch].limbs()[0];
  });
  for (std::size_t i = 0; i < kBatches; ++i) {
    const auto sums = sim::wide_lane_values(results[i].sum_spec, kWidth, lanes);
    for (int lane = 0; lane < lanes; ++lane) {
      const bool flagged = lane_bit(results[i].flagged, lane);
      const bool wrong = lane_bit(results[i].wrong, lane);
      const std::size_t k = i * batch + static_cast<std::size_t>(lane);
      ++checked;
      if ((wrong && !flagged) || (!flagged && sums[lane] != pool.sum[k])) ++bad;
    }
  }

  vlsa::util::Rng rng(seed);
  sim::WideBatch fill_batch(kWidth, lanes);
  const double fill_ns =
      median_ns([&](int) { sim::fill_uniform(rng, fill_batch); });

  // util: the operand copy every submit() pays, and the recovery lane's
  // exact add.
  const double copy_ns = median_ns([&](int rep) {
    const auto i = static_cast<std::size_t>(rep % kBatches);
    std::vector<std::pair<BitVec, BitVec>> copies;
    copies.reserve(batch);
    for (std::size_t j = 0; j < batch; ++j) {
      copies.emplace_back(pool.a[i * batch + j], pool.b[i * batch + j]);
    }
    sink += copies.back().first.limbs()[0];
  });
  const double add_ns = median_ns([&](int rep) {
    const auto i = static_cast<std::size_t>(rep % kBatches);
    for (std::size_t k = i * batch; k < (i + 1) * batch; ++k) {
      sink += pool.a[k].add_with_carry(pool.b[k]).sum.limbs()[0];
    }
  });
  for (std::size_t k = 0; k < batch; ++k) {
    ++checked;
    if (pool.a[k].add_with_carry(pool.b[k]).sum != pool.sum[k]) ++bad;
  }

  // net: decode request frames, encode response frames.
  std::vector<std::vector<std::uint8_t>> wire(kBatches);
  std::vector<std::vector<net::ResponseFrame>> responses(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    for (std::size_t j = 0; j < batch; ++j) {
      const std::size_t k = i * batch + j;
      append_request_frame(wire[i], k, pool.a[k], pool.b[k]);
      net::ResponseFrame r;
      r.id = k;
      r.width = kWidth;
      r.window = window;
      r.sum = pool.sum[k];
      responses[i].push_back(std::move(r));
    }
  }
  auto decode_all = [&](const std::vector<std::uint8_t>& bytes,
                        auto&& on_frame) {
    net::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    net::RequestFrame request;
    net::ResponseFrame response;
    while (decoder.next(request, response) ==
           net::FrameDecoder::Result::Frame) {
      on_frame(decoder.type(), request, response);
    }
  };
  const double decode_ns = median_ns([&](int rep) {
    decode_all(wire[static_cast<std::size_t>(rep % kBatches)],
               [&](net::FrameType, const net::RequestFrame& r,
                   const net::ResponseFrame&) { sink += r.id; });
  });
  std::size_t decoded = 0;
  decode_all(wire[0], [&](net::FrameType type, const net::RequestFrame& r,
                          const net::ResponseFrame&) {
    ++checked;
    const bool ok = type == net::FrameType::Request && r.id == decoded &&
                    r.a == pool.a[decoded] && r.b == pool.b[decoded];
    if (!ok) ++bad;
    ++decoded;
  });
  ++checked;
  if (decoded != batch) ++bad;
  std::vector<std::uint8_t> out;
  const double encode_ns = median_ns([&](int rep) {
    out.clear();
    for (const auto& r : responses[static_cast<std::size_t>(rep % kBatches)]) {
      net::encode_response(r, out);
    }
  });
  decoded = 0;
  out.clear();
  for (const auto& r : responses[0]) net::encode_response(r, out);
  decode_all(out, [&](net::FrameType type, const net::RequestFrame&,
                      const net::ResponseFrame& r) {
    ++checked;
    if (type != net::FrameType::Response || r.sum != pool.sum[decoded]) ++bad;
    ++decoded;
  });
  ++checked;
  if (decoded != batch) ++bad;

  // analysis: window sizing alone.
  std::vector<double> choose_ms;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    sink += static_cast<std::uint64_t>(
        vlsa::analysis::choose_window(kWidth, kMaxFlagProbability));
    choose_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }

  report.count(checked, bad);
  const double per = 1.0 / lanes;
  report.layer("analysis.choose_window_ms", median(choose_ms), "ms");
  report.layer("sim.pack_ns", pack_ns * per, "ns");
  report.layer("sim.eval_ns", eval_ns * per, "ns");
  report.layer("sim.unpack_ns", unpack_ns * per, "ns");
  report.layer("sim.fill_ns", fill_ns * per, "ns");
  report.layer("sim.lanes", lanes, "count");
  report.layer("util.operand_copy_ns", copy_ns * per, "ns");
  report.layer("util.exact_add_ns", add_ns * per, "ns");
  report.layer("net.decode_ns", decode_ns * per, "ns");
  report.layer("net.encode_ns", encode_ns * per, "ns");
  g_sink = sink;
}

}  // namespace wallbench
