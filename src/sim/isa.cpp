#include "sim/isa.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/wide_kernel.hpp"

namespace vlsa::sim {

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return "scalar";
    case Isa::Avx2:
      return "avx2";
    case Isa::Avx512:
      return "avx512";
  }
  return "scalar";
}

int isa_lanes(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return 64;
    case Isa::Avx2:
      return 256;
    case Isa::Avx512:
      return 512;
  }
  return 64;
}

namespace {

const detail::Kernels* kernels_of(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return detail::scalar_kernels();
    case Isa::Avx2:
      return detail::avx2_kernels();
    case Isa::Avx512:
      return detail::avx512_kernels();
  }
  return detail::scalar_kernels();
}

bool cpu_has(Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::Avx512:
      // The AVX-512 TU is built with F+BW+DQ+VL, so require them all —
      // the compiler is free to use any of them there.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
  }
  return false;
#else
  return isa == Isa::Scalar;
#endif
}

}  // namespace

bool isa_compiled(Isa isa) { return kernels_of(isa) != nullptr; }

bool isa_supported(Isa isa) { return isa_compiled(isa) && cpu_has(isa); }

Isa best_isa() {
  // AVX2 ahead of AVX-512, deliberately.  The first reference host
  // (1 thread) measured the 512-lane tier 3% behind AVX2 end to end.
  // The sliced kernel now serves batch Monte-Carlo only; on the 4-vCPU
  // AVX-512 host, with the streaming O(n) kernel, bench/error_rate's
  // lane-width section (width 1024, k = 23, one thread) reads medians
  // of 20.1M trials/s at 256 AVX2 lanes and 20.8M at 512 AVX-512 lanes
  // over six runs each (docs/benchmarks.md).  Switching the default
  // would change every default Monte-Carlo RNG stream, so it is a
  // change of its own.  The service does not read the tier.
  // VLSA_FORCE_ISA=avx512 (active_isa) is the explicit opt-in.
  if (isa_supported(Isa::Avx2)) return Isa::Avx2;
  if (isa_supported(Isa::Avx512)) return Isa::Avx512;
  return Isa::Scalar;
}

std::optional<Isa> parse_isa(std::string_view name) {
  std::string low;
  low.reserve(name.size());
  for (const char c : name) {
    low.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (low == "scalar") return Isa::Scalar;
  if (low == "avx2") return Isa::Avx2;
  if (low == "avx512" || low == "avx-512") return Isa::Avx512;
  return std::nullopt;
}

Isa active_isa() {
  // Resolved once; the env var is read before any service thread exists
  // (first call wins), so the cached value is what every batch uses.
  static const Isa cached = [] {
    const char* forced = std::getenv("VLSA_FORCE_ISA");
    if (forced == nullptr || *forced == '\0') return best_isa();
    const std::optional<Isa> parsed = parse_isa(forced);
    if (!parsed.has_value()) {
      throw std::invalid_argument(
          std::string("VLSA_FORCE_ISA: unknown ISA '") + forced +
          "' (expected scalar, avx2, or avx512)");
    }
    if (!isa_supported(*parsed)) {
      throw std::runtime_error(
          std::string("VLSA_FORCE_ISA: ISA '") + isa_name(*parsed) +
          (isa_compiled(*parsed) ? "' is not supported by this CPU"
                                 : "' was not compiled into this build"));
    }
    return *parsed;
  }();
  return cached;
}

int active_lanes() { return isa_lanes(active_isa()); }

namespace detail {

const Kernels* kernels_for(Isa requested, int words) {
  constexpr Isa kTiers[] = {Isa::Avx512, Isa::Avx2, Isa::Scalar};
  for (const Isa tier : kTiers) {
    if (static_cast<int>(tier) > static_cast<int>(requested)) continue;
    if (!isa_supported(tier)) continue;
    const Kernels* k = kernels_of(tier);
    if (words % k->group_words != 0) continue;
    return k;
  }
  return scalar_kernels();  // unreachable: scalar always qualifies
}

}  // namespace detail

Isa resolved_isa(Isa requested, int lanes) {
  if (lanes < 64 || lanes % 64 != 0) {
    throw std::invalid_argument("resolved_isa: lanes must be a positive "
                                "multiple of 64");
  }
  switch (detail::kernels_for(requested, lanes / 64)->group_words) {
    case 8:
      return Isa::Avx512;
    case 4:
      return Isa::Avx2;
    default:
      return Isa::Scalar;
  }
}

}  // namespace vlsa::sim
