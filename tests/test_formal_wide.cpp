// Wide-width formal proofs (`slow` ctest label): the 256/512-bit
// obligations that certify the paper's claims at sizes the random
// checker cannot meaningfully cover (2^513 input pairs).  The fast
// signal lives in test_formal.cpp; this file is the heavyweight sweep
// run by `ctest -L slow` and the CI `prove` job's ctest stage.

#include <gtest/gtest.h>

#include "adders/adders.hpp"
#include "core/aca_netlist.hpp"
#include "netlist/formal/miter.hpp"
#include "netlist_test_util.hpp"

namespace vlsa {
namespace {

using netlist::formal::FormalVerdict;
using netlist::formal::MiterSpec;
using netlist::formal::check_equivalence_formal;

TEST(FormalWide, ExactAddersPairwiseAt256) {
  // Prove every shipped architecture equal to ripple-carry at 256 bits.
  const auto reference =
      adders::build_adder(adders::AdderKind::RippleCarry, 256);
  for (auto kind : adders::all_adder_kinds()) {
    if (kind == adders::AdderKind::RippleCarry) continue;
    const auto other = adders::build_adder(kind, 256);
    const auto result = check_equivalence_formal(reference.nl, other.nl);
    EXPECT_EQ(result.verdict, FormalVerdict::Proven)
        << adders::adder_kind_name(kind) << ": " << result.summary();
  }
}

TEST(FormalWide, AcaConditionallyExactAt256And512) {
  for (const auto& [width, k] : {std::pair{256, 8}, std::pair{512, 9}}) {
    const auto exact =
        adders::build_adder(adders::AdderKind::RippleCarry, width);
    const auto aca = core::build_aca(width, k, true);
    MiterSpec spec;
    spec.assume_zero = {"error"};
    const auto result = check_equivalence_formal(aca.nl, exact.nl, spec);
    EXPECT_EQ(result.verdict, FormalVerdict::Proven)
        << "width " << width << " k " << k << ": " << result.summary();
    EXPECT_EQ(result.outputs_compared, width + 1);
  }
}

TEST(FormalWide, SpeculativeCarryIdentityAt256And512) {
  // c_spec = c_exact & ~R_k, the batch engine's formula, against the
  // shared-strip ACA on every output, with no assumptions, for R_k by
  // AND-doubling (the row-major kernel) and by block prefix/suffix ANDs
  // (the sliced kernel; 512 = 56*9 + 8 ends in a partial block).
  for (const auto how : {testing::RunMaskBuild::Doubling,
                         testing::RunMaskBuild::BlockWindow}) {
    for (const auto& [width, k] : {std::pair{256, 8}, std::pair{512, 9}}) {
      const auto reference = core::build_aca(width, k, true);
      const auto identity = testing::build_run_mask_aca(width, k, how);
      const auto result = check_equivalence_formal(identity, reference.nl);
      EXPECT_EQ(result.verdict, FormalVerdict::Proven)
          << "width " << width << " k " << k << " build "
          << static_cast<int>(how) << ": " << result.summary();
      EXPECT_EQ(result.outputs_compared, width + 2);
    }
  }
}

TEST(FormalWide, VlsaRecoveryExactAt256And512) {
  for (const auto& [width, k] : {std::pair{256, 8}, std::pair{512, 9}}) {
    const auto exact =
        adders::build_adder(adders::AdderKind::RippleCarry, width);
    const auto vlsa = core::build_vlsa(width, k);
    MiterSpec spec;
    spec.ignore_unmatched_outputs = true;
    const auto result = check_equivalence_formal(vlsa.nl, exact.nl, spec);
    EXPECT_EQ(result.verdict, FormalVerdict::Proven)
        << "width " << width << " k " << k << ": " << result.summary();
  }
}

TEST(FormalWide, AcaVsExactStillRefutableAt256) {
  // Without the flag assumption the 256-bit ACA must yield a
  // counterexample — the solver finds a >=k propagate chain among
  // 2^513 candidate input pairs.
  const auto exact =
      adders::build_adder(adders::AdderKind::RippleCarry, 256);
  const auto aca = core::build_aca(256, 8);
  const auto result = check_equivalence_formal(aca.nl, exact.nl);
  EXPECT_EQ(result.verdict, FormalVerdict::Counterexample)
      << result.summary();
}

}  // namespace
}  // namespace vlsa
