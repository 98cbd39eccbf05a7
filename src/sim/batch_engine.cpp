#include "sim/batch_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "sim/wide_kernel.hpp"

namespace vlsa::sim {

// The evaluation recurrences live in wide_kernel.hpp, templated over a
// LaneWord; this file instantiates the scalar (64-lane) tier and hosts
// the public API — one algorithm, every tier differentially tested
// against core::aca_*.

namespace detail {

const Kernels* scalar_kernels() { return make_kernels<ScalarWord>(); }

}  // namespace detail

namespace {

void check_lanes(int lanes) {
  if (lanes < 64 || lanes > kMaxBatchLanes || lanes % 64 != 0) {
    throw std::invalid_argument(
        "batch engine: lanes must be a multiple of 64 in [64, 512]");
  }
}

void check_wide(const WideBatch& ops, int k) {
  if (ops.width < 1) {
    throw std::invalid_argument("batch engine: empty operands");
  }
  check_lanes(ops.lanes);
  const auto expect =
      static_cast<std::size_t>(ops.width) * static_cast<std::size_t>(
                                                ops.words());
  if (ops.a.size() != expect || ops.b.size() != expect) {
    throw std::invalid_argument("batch engine: slice/width/lanes mismatch");
  }
  if (k < 1) {
    throw std::invalid_argument("batch engine: window must be >= 1");
  }
}

/// Read lane `lane` out of the wide slice layout bit by bit (bit i of
/// lane j sits at bit j % 64 of word `i * words + j / 64`), overwriting
/// every limb and leaving the bits above `width` zero.
void extract_lane(const std::uint64_t* sliced, int width, int words, int lane,
                  std::uint64_t* limbs) {
  const std::uint64_t* column = sliced + lane / 64;
  const int bit = lane % 64;
  for (int limb = 0; limb * 64 < width; ++limb) {
    const int hi = std::min(64, width - limb * 64);
    const std::uint64_t* rows =
        column + static_cast<std::size_t>(limb) * 64 * words;
    std::uint64_t v = 0;
    for (int i = 0; i < hi; ++i) {
      v |= ((rows[static_cast<std::size_t>(i) * words] >> bit) & 1) << i;
    }
    limbs[limb] = v;
  }
}

/// Run the eval kernel group by group over a wide slice pair.  The
/// first `n * words` words of out.scratch hold the run mask; callers
/// may keep their own data after them.
void wide_eval(const std::uint64_t* a, const std::uint64_t* b, int n,
               int lanes, int k, const std::uint64_t* carry_in,
               WideResult& out, Isa isa) {
  const int words = lanes / 64;
  out.width = n;
  out.lanes = lanes;
  const auto signal_words =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(words);
  // No zero-fill: the kernel writes every word of every output.
  out.sum_spec.resize(signal_words);
  out.carry_out_spec.resize(static_cast<std::size_t>(words));
  out.carry_out_exact.resize(static_cast<std::size_t>(words));
  out.flagged.resize(static_cast<std::size_t>(words));
  out.wrong.resize(static_cast<std::size_t>(words));
  if (out.scratch.size() < signal_words) out.scratch.resize(signal_words);

  const detail::EvalOut eo{out.sum_spec.data(), out.carry_out_spec.data(),
                           out.carry_out_exact.data(), out.flagged.data(),
                           out.wrong.data()};
  const detail::Kernels* kn = detail::kernels_for(isa, words);
  for (int w0 = 0; w0 < words; w0 += kn->group_words) {
    kn->eval(a, b, n, words, w0, k, carry_in, out.scratch.data(), eo);
  }
}

}  // namespace

void wide_aca_add_into(const WideBatch& ops, int k,
                       const std::uint64_t* carry_in, WideResult& out,
                       Isa isa) {
  check_wide(ops, k);
  wide_eval(ops.a.data(), ops.b.data(), ops.width, ops.lanes, k, carry_in,
            out, isa);
}

WideResult wide_aca_add(const WideBatch& ops, int k,
                        const std::uint64_t* carry_in, Isa isa) {
  WideResult out;
  wide_aca_add_into(ops, k, carry_in, out, isa);
  return out;
}

void wide_aca_sub_into(const WideBatch& ops, int k, WideResult& out,
                       Isa isa) {
  check_wide(ops, k);
  // a - b = a + ~b + 1 per lane, carry-in set on every lane.  ~b and
  // the carry-in mask sit in out.scratch after the run mask.
  const std::size_t signal_words = ops.b.size();
  out.scratch.resize(2 * signal_words + static_cast<std::size_t>(ops.words()));
  std::uint64_t* bc = out.scratch.data() + signal_words;
  std::uint64_t* ones = bc + signal_words;
  for (std::size_t i = 0; i < signal_words; ++i) bc[i] = ~ops.b[i];
  std::fill_n(ones, ops.words(), ~std::uint64_t{0});
  wide_eval(ops.a.data(), bc, ops.width, ops.lanes, k, ones, out, isa);
}

WideResult wide_aca_sub(const WideBatch& ops, int k, Isa isa) {
  WideResult out;
  wide_aca_sub_into(ops, k, out, isa);
  return out;
}

std::vector<int> wide_longest_runs(const WideBatch& ops, Isa isa) {
  check_wide(ops, /*k=*/1);
  const int words = ops.words();
  std::vector<int> runs(static_cast<std::size_t>(ops.lanes), 0);
  const detail::Kernels* kn = detail::kernels_for(isa, words);
  for (int w0 = 0; w0 < words; w0 += kn->group_words) {
    kn->longest_runs(ops.a.data(), ops.b.data(), ops.width, words, w0,
                     runs.data() + static_cast<std::ptrdiff_t>(w0) * 64);
  }
  return runs;
}

WideBatch wide_transpose_batch(
    const std::vector<std::pair<util::BitVec, util::BitVec>>& pairs,
    int width, int lanes, Isa isa) {
  check_lanes(lanes);
  const int used = static_cast<int>(pairs.size());
  if (used > lanes) {
    throw std::invalid_argument(
        "wide_transpose_batch: more pairs than lanes");
  }
  for (const auto& [a, b] : pairs) {
    if (a.width() != width || b.width() != width) {
      throw std::invalid_argument(
          "wide_transpose_batch: operand width mismatch");
    }
  }
  WideBatch batch(width, lanes);
  const int words = batch.words();
  const int limbs = (width + 63) / 64;
  const detail::Kernels* kn = detail::kernels_for(isa, words);
  const int g_words = kn->group_words;
  // One (gather, G-block transpose, scatter) per filled group of G lane
  // words x limb; groups past the last pair stay zero.  The interleaved
  // block layout kernel_transpose64 wants is the wide slice layout
  // restricted to those groups, so the scatter side is plain
  // contiguous copies.
  std::vector<std::uint64_t> ta(static_cast<std::size_t>(64) * g_words);
  std::vector<std::uint64_t> tb(ta.size());
  for (int w0 = 0; w0 * 64 < used; w0 += g_words) {
    const int group_lanes = std::min(used - w0 * 64, 64 * g_words);
    for (int limb = 0; limb < limbs; ++limb) {
      std::fill(ta.begin(), ta.end(), 0);
      std::fill(tb.begin(), tb.end(), 0);
      for (int idx = 0; idx < group_lanes; ++idx) {
        const auto at =
            static_cast<std::size_t>(idx % 64) * g_words + idx / 64;
        ta[at] = pairs[w0 * 64 + idx].first.limbs()[limb];
        tb[at] = pairs[w0 * 64 + idx].second.limbs()[limb];
      }
      kn->transpose64(ta.data());
      kn->transpose64(tb.data());
      const int hi = std::min(64, width - limb * 64);
      for (int i = 0; i < hi; ++i) {
        const auto at =
            static_cast<std::size_t>(limb * 64 + i) * words + w0;
        std::copy_n(ta.data() + static_cast<std::size_t>(i) * g_words,
                    g_words, batch.a.data() + at);
        std::copy_n(tb.data() + static_cast<std::size_t>(i) * g_words,
                    g_words, batch.b.data() + at);
      }
    }
  }
  return batch;
}

util::BitVec wide_lane_value(const std::vector<std::uint64_t>& sliced,
                             int width, int words, int lane) {
  if (words < 1 || lane < 0 || lane >= words * 64) {
    throw std::invalid_argument("wide_lane_value: lane out of range");
  }
  if (sliced.size() < static_cast<std::size_t>(width) *
                          static_cast<std::size_t>(words)) {
    throw std::invalid_argument("wide_lane_value: slice shorter than width");
  }
  util::BitVec v(width);
  extract_lane(sliced.data(), width, words, lane, v.limbs().data());
  return v;
}

std::vector<util::BitVec> wide_lane_values(
    const std::vector<std::uint64_t>& sliced, int width, int lanes,
    Isa isa) {
  check_lanes(lanes);
  const int words = lanes / 64;
  if (sliced.size() < static_cast<std::size_t>(width) *
                          static_cast<std::size_t>(words)) {
    throw std::invalid_argument("wide_lane_values: slice shorter than width");
  }
  std::vector<util::BitVec> values(static_cast<std::size_t>(lanes),
                                   util::BitVec(width));
  const int limbs = (width + 63) / 64;
  const detail::Kernels* kn = detail::kernels_for(isa, words);
  const int g_words = kn->group_words;
  // Inverse of wide_transpose_batch: the gather side is contiguous
  // copies out of the wide slice, the G-block transpose runs on the
  // selected tier, and the scatter writes one limb per lane.
  std::vector<std::uint64_t> t(static_cast<std::size_t>(64) * g_words);
  for (int w0 = 0; w0 < words; w0 += g_words) {
    for (int limb = 0; limb < limbs; ++limb) {
      const int hi = std::min(64, width - limb * 64);
      for (int i = 0; i < hi; ++i) {
        std::copy_n(sliced.data() +
                        static_cast<std::size_t>(limb * 64 + i) * words + w0,
                    g_words, t.data() + static_cast<std::size_t>(i) * g_words);
      }
      if (hi < 64) {
        std::fill(t.begin() + static_cast<std::size_t>(hi) * g_words,
                  t.end(), 0);
      }
      kn->transpose64(t.data());
      for (int idx = 0; idx < 64 * g_words; ++idx) {
        values[static_cast<std::size_t>(w0 * 64 + idx)].limbs()[limb] =
            t[static_cast<std::size_t>(idx % 64) * g_words + idx / 64];
      }
    }
  }
  return values;
}

void fill_uniform(util::Rng& rng, WideBatch& batch) {
  rng.fill(batch.a);
  rng.fill(batch.b);
}

}  // namespace vlsa::sim
