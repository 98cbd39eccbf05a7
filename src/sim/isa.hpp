#pragma once
// Runtime ISA selection for the wide batch engine.
//
// The bit-sliced kernels (wide_kernel.hpp) are compiled three times —
// scalar (always), AVX2 and AVX-512 (when the compiler supports the
// flags; see src/sim/CMakeLists.txt) — and selected at runtime from a
// CPUID probe.  The choice is a process-wide constant: `active_isa()`
// resolves once (`best_isa()`: AVX2 when supported, else AVX-512, else
// scalar; or the `VLSA_FORCE_ISA` environment override — values
// `scalar` / `avx2` / `avx512`, case-insensitive) and every caller that
// doesn't pass an explicit Isa inherits it.  Forcing an ISA the build lacks or the CPU can't run is
// an error, not a silent fallback — tests rely on the override actually
// overriding.
//
// A *requested* ISA is still only an upper bound per call: a kernel is
// usable for a batch only when its lane group divides the batch's lane
// count, so e.g. a 256-lane batch on an AVX-512 machine runs the AVX2
// kernel and a 64-lane batch always runs scalar.  `resolved_isa()`
// exposes that final choice for provenance (bench sidecars record it).

#include <optional>
#include <string_view>

namespace vlsa::sim {

/// Kernel tiers, narrowest to widest.  The integer order is the
/// dispatch order: a request for tier T may use any tier <= T.
enum class Isa { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Canonical lowercase name ("scalar" / "avx2" / "avx512") — the
/// values `VLSA_FORCE_ISA` accepts and sidecars record.
[[nodiscard]] const char* isa_name(Isa isa);

/// Lanes one kernel step of this tier advances (64 / 256 / 512).
[[nodiscard]] int isa_lanes(Isa isa);

/// Was this tier's translation unit built with its instruction set?
[[nodiscard]] bool isa_compiled(Isa isa);

/// Compiled AND the running CPU reports the features (CPUID probe;
/// AVX-512 requires F+BW+DQ+VL, the flag set the TU is built with).
[[nodiscard]] bool isa_supported(Isa isa);

/// Preferred supported tier on this machine/build.  NOT simply the
/// widest: AVX2 is preferred over AVX-512 even when both are supported.
/// The preference came from a 1-thread host where AVX-512 ran 3% behind;
/// the 4-vCPU AVX-512 host now reads it level or ahead, within run-to-
/// run spread (docs/benchmarks.md), and the default lane count is part
/// of every Monte-Carlo RNG stream, so it stays until a change of its
/// own.  Set VLSA_FORCE_ISA=avx512 to opt in.
[[nodiscard]] Isa best_isa();

/// The process-wide tier: best_isa(), unless VLSA_FORCE_ISA names
/// another (resolved once, then cached).  Throws std::invalid_argument
/// on an unknown name and std::runtime_error on an unsupported one.
[[nodiscard]] Isa active_isa();

/// isa_lanes(active_isa()) — Monte-Carlo's default lane count.
[[nodiscard]] int active_lanes();

/// Parse a (case-insensitive) ISA name; nullopt if unknown.
[[nodiscard]] std::optional<Isa> parse_isa(std::string_view name);

/// The tier a `lanes`-lane batch actually executes on when `requested`
/// is the upper bound: widest tier <= requested that is supported and
/// whose lane group divides `lanes`.  Scalar always qualifies.
[[nodiscard]] Isa resolved_isa(Isa requested, int lanes);

}  // namespace vlsa::sim
