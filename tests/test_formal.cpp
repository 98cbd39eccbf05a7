// Formal equivalence checking: the in-repo CDCL solver, the structurally
// hashing CNF builder, and the miter over the netlist IR.
//
// The suite cross-checks the SAT layer against every independent oracle
// the repo has: the random-vector checker (differential, on seeded
// defects), the 64-lane simulator (counterexample replay and exhaustive
// truth tables on small random netlists), and the adder generators
// themselves (pairwise proofs).  Wide (256/512-bit) proofs live in
// test_formal_wide.cpp under the `slow` label; this file stays fast.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "adders/adders.hpp"
#include "core/aca_netlist.hpp"
#include "netlist/equiv.hpp"
#include "netlist/formal/cnf.hpp"
#include "netlist/formal/miter.hpp"
#include "netlist/formal/solver.hpp"
#include "netlist/simulator.hpp"
#include "netlist_test_util.hpp"
#include "util/rng.hpp"

namespace vlsa {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::formal::CnfBuilder;
using netlist::formal::FormalOptions;
using netlist::formal::FormalResult;
using netlist::formal::FormalVerdict;
using netlist::formal::Lit;
using netlist::formal::MiterSpec;
using netlist::formal::SatVerdict;
using netlist::formal::Solver;
using netlist::formal::check_equivalence_formal;
using netlist::formal::counterexample_bus;
using netlist::formal::negate;

// ---------------------------------------------------------------------
// Solver unit tests.

TEST(FormalSolver, TrivialSatAndModel) {
  Solver s;
  const Lit x = netlist::formal::make_lit(s.new_var(), false);
  const Lit y = netlist::formal::make_lit(s.new_var(), false);
  s.add_clause({x, y});
  s.add_clause({negate(x)});
  ASSERT_EQ(s.solve(), SatVerdict::Sat);
  EXPECT_FALSE(s.model_value(netlist::formal::var_of(x)));
  EXPECT_TRUE(s.model_value(netlist::formal::var_of(y)));
}

TEST(FormalSolver, TrivialUnsat) {
  Solver s;
  const Lit x = netlist::formal::make_lit(s.new_var(), false);
  s.add_clause({x});
  s.add_clause({negate(x)});
  EXPECT_EQ(s.solve(), SatVerdict::Unsat);
}

TEST(FormalSolver, AssumptionsAreTemporary) {
  Solver s;
  const Lit x = netlist::formal::make_lit(s.new_var(), false);
  const Lit y = netlist::formal::make_lit(s.new_var(), false);
  s.add_clause({x, y});
  const Lit assumptions[] = {negate(x), negate(y)};
  EXPECT_EQ(s.solve(assumptions), SatVerdict::Unsat);
  // The assumptions must not persist: the instance itself is SAT.
  EXPECT_EQ(s.solve(), SatVerdict::Sat);
}

TEST(FormalSolver, IncrementalClauseAddition) {
  Solver s;
  const Lit x = netlist::formal::make_lit(s.new_var(), false);
  const Lit y = netlist::formal::make_lit(s.new_var(), false);
  s.add_clause({x, y});
  ASSERT_EQ(s.solve(), SatVerdict::Sat);
  s.add_clause({negate(x)});
  ASSERT_EQ(s.solve(), SatVerdict::Sat);
  s.add_clause({negate(y)});
  EXPECT_EQ(s.solve(), SatVerdict::Unsat);
}

// ---------------------------------------------------------------------
// CNF builder: structural hashing and constant folding.

TEST(FormalCnf, HashingAndFolding) {
  CnfBuilder b;
  const Lit x = b.add_input();
  const Lit y = b.add_input();
  EXPECT_EQ(b.lit_and(x, y), b.lit_and(y, x));
  EXPECT_EQ(b.lit_and(x, x), x);
  EXPECT_EQ(b.lit_and(x, negate(x)), b.lit_false());
  EXPECT_EQ(b.lit_xor(x, x), b.lit_false());
  EXPECT_EQ(b.lit_xor(x, negate(x)), b.lit_true());
  // XNOR shares the XOR node, differing only in polarity.
  EXPECT_EQ(b.lit_xor(negate(x), y), negate(b.lit_xor(x, y)));
}

// ---------------------------------------------------------------------
// Miter proofs over the shipped generators.

TEST(Formal, AdderGeneratorsPairwiseEquivalent) {
  // Every architecture is proved, not sampled, equal to ripple-carry —
  // at an odd width so block-structured generators exercise their
  // tail-block paths.
  for (const int width : {21, 33}) {
    const auto reference =
        adders::build_adder(adders::AdderKind::RippleCarry, width);
    for (auto kind : adders::all_adder_kinds()) {
      const auto other = adders::build_adder(kind, width);
      const auto result = check_equivalence_formal(reference.nl, other.nl);
      EXPECT_EQ(result.verdict, FormalVerdict::Proven)
          << adders::adder_kind_name(kind) << " width " << width << ": "
          << result.summary();
      EXPECT_EQ(result.outputs_compared, width + 1);
    }
  }
}

TEST(Formal, AcaVsExactYieldsReplayableCounterexample) {
  // ACA(16,4) is *not* an exact adder; the miter must produce inputs
  // that the simulator confirms disagree.
  const auto exact = adders::build_adder(adders::AdderKind::KoggeStone, 16);
  const auto aca = core::build_aca(16, 4);
  const auto result = check_equivalence_formal(aca.nl, exact.nl);
  ASSERT_EQ(result.verdict, FormalVerdict::Counterexample)
      << result.summary();
  EXPECT_FALSE(result.mismatched_output.empty());

  const auto a = counterexample_bus(aca.nl, result.counterexample, "a");
  const auto b = counterexample_bus(aca.nl, result.counterexample, "b");
  const auto aca_out = testing::run_adder_netlist(
      aca.nl, aca.a, aca.b, aca.sum, aca.carry_out, {{a, b}});
  const auto exact_out = testing::run_adder_netlist(
      exact.nl, exact.a, exact.b, exact.sum, exact.carry_out, {{a, b}});
  EXPECT_TRUE(aca_out[0].sum != exact_out[0].sum ||
              aca_out[0].carry_out != exact_out[0].carry_out)
      << "counterexample a=0x" << a.to_hex() << " b=0x" << b.to_hex()
      << " does not replay";
}

TEST(Formal, AcaConditionallyExactUnderFlagZero) {
  // The paper's central claim: whenever ER = 0 the speculative sum is
  // the exact sum.  Proven, not sampled, at width 64.
  const auto exact = adders::build_adder(adders::AdderKind::RippleCarry, 64);
  const auto aca = core::build_aca(64, 6, true);
  MiterSpec spec;
  spec.assume_zero = {"error"};
  const auto result = check_equivalence_formal(aca.nl, exact.nl, spec);
  EXPECT_EQ(result.verdict, FormalVerdict::Proven) << result.summary();
  // sum[0..63] + cout, with "error" assumed rather than compared.
  EXPECT_EQ(result.outputs_compared, 65);
}

TEST(Formal, SpeculativeCarryIdentityMatchesBuildAca) {
  // The batch engine does not ripple each window: it computes
  // c_spec = c_exact & ~R_k (docs/theory.md §4).  Proved equal to the
  // shared-strip ACA on every output (sum, cout and error) with no
  // assumptions, for both ways the code builds R_k.  Doubling: k = 6
  // doubles by 1, 2, 3 and k = 23 by 1, 2, 4, 8, 7, so the last step is
  // not a power of two in either.  Block prefix/suffix: 64 = 10*6 + 4
  // and 64 = 2*23 + 18, so the last block is partial in both.
  for (const auto how : {testing::RunMaskBuild::Doubling,
                         testing::RunMaskBuild::BlockWindow}) {
    for (const int k : {6, 23}) {
      const auto reference = core::build_aca(64, k, true);
      const auto identity = testing::build_run_mask_aca(64, k, how);
      const auto result = check_equivalence_formal(identity, reference.nl);
      EXPECT_EQ(result.verdict, FormalVerdict::Proven)
          << "k " << k << " build " << static_cast<int>(how) << ": "
          << result.summary();
      EXPECT_EQ(result.outputs_compared, 64 + 2);
    }
  }
}

TEST(Formal, VlsaRecoveryPathIsExact) {
  const auto exact = adders::build_adder(adders::AdderKind::RippleCarry, 64);
  const auto vlsa = core::build_vlsa(64, 6);
  MiterSpec spec;
  spec.ignore_unmatched_outputs = true;  // skip spec_sum/error/valid
  const auto result = check_equivalence_formal(vlsa.nl, exact.nl, spec);
  EXPECT_EQ(result.verdict, FormalVerdict::Proven) << result.summary();
  EXPECT_EQ(result.outputs_compared, 65);
}

TEST(Formal, SweepingIsOptionalAndAgrees) {
  FormalOptions no_sweep;
  no_sweep.sweep = false;
  const auto exact = adders::build_adder(adders::AdderKind::RippleCarry, 32);
  const auto cla = adders::build_adder(adders::AdderKind::CarryLookahead4, 32);
  EXPECT_EQ(check_equivalence_formal(exact.nl, cla.nl, {}, no_sweep).verdict,
            FormalVerdict::Proven);
  const auto aca = core::build_aca(16, 4);
  const auto exact16 =
      adders::build_adder(adders::AdderKind::RippleCarry, 16);
  EXPECT_EQ(
      check_equivalence_formal(aca.nl, exact16.nl, {}, no_sweep).verdict,
      FormalVerdict::Counterexample);
}

TEST(Formal, ConflictBudgetYieldsUnknown) {
  FormalOptions options;
  options.conflict_limit = 1;
  options.sweep = false;
  const auto a = adders::build_adder(adders::AdderKind::RippleCarry, 64);
  const auto b = adders::build_adder(adders::AdderKind::KoggeStone, 64);
  const auto result = check_equivalence_formal(a.nl, b.nl, {}, options);
  EXPECT_EQ(result.verdict, FormalVerdict::Unknown) << result.summary();
  EXPECT_FALSE(result.mismatched_output.empty());  // names the timed-out slice
}

TEST(Formal, PortMismatchNamesTheOffendingPort) {
  const auto a9 = adders::build_adder(adders::AdderKind::KoggeStone, 9);
  const auto a8 = adders::build_adder(adders::AdderKind::KoggeStone, 8);
  try {
    check_equivalence_formal(a9.nl, a8.nl);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("a[8]"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Differential: seeded single-gate defects.  Every defect must be found
// SAT by the miter, agree with the random checker, and replay in the
// simulator; the clean pair must stay UNSAT.

// Invert the driver of output `port` in place (the polarity-flipped
// sibling of its cell kind).  Returns false for kinds without one.
bool invert_output_driver(Netlist& nl, const std::string& port) {
  const netlist::NetId net = nl.find_output(port);
  if (net == netlist::kNoNet) return false;
  auto& gate = nl.unchecked_gate(net);
  switch (gate.kind) {
    case CellKind::Xor2:  gate.kind = CellKind::Xnor2; return true;
    case CellKind::Xnor2: gate.kind = CellKind::Xor2;  return true;
    case CellKind::And2:  gate.kind = CellKind::Nand2; return true;
    case CellKind::Nand2: gate.kind = CellKind::And2;  return true;
    case CellKind::Or2:   gate.kind = CellKind::Nor2;  return true;
    case CellKind::Nor2:  gate.kind = CellKind::Or2;   return true;
    case CellKind::Buf:   gate.kind = CellKind::Inv;   return true;
    case CellKind::Inv:   gate.kind = CellKind::Buf;   return true;
    case CellKind::Mux2:  // swap the data legs (conditional-sum drivers)
      std::swap(gate.inputs[1], gate.inputs[2]);
      return true;
    default: return false;
  }
}

TEST(Formal, SeededDefectsDifferentialAgainstRandomChecker) {
  const int width = 24;
  const auto reference =
      adders::build_adder(adders::AdderKind::RippleCarry, width);
  for (auto kind : {adders::AdderKind::KoggeStone,
                    adders::AdderKind::BrentKung,
                    adders::AdderKind::ConditionalSum}) {
    // Clean pair: both checkers agree on equivalent.
    auto circuit = adders::build_adder(kind, width);
    ASSERT_EQ(check_equivalence_formal(reference.nl, circuit.nl).verdict,
              FormalVerdict::Proven)
        << adders::adder_kind_name(kind);
    ASSERT_TRUE(
        netlist::check_equivalence(reference.nl, circuit.nl).equivalent);

    // Defect pair: a single inverted output driver must flip both
    // verdicts, and the formal counterexample must replay.
    for (const char* port : {"sum[0]", "sum[13]", "sum[23]"}) {
      auto broken = adders::build_adder(kind, width);
      ASSERT_TRUE(invert_output_driver(broken.nl, port))
          << adders::adder_kind_name(kind) << " " << port;
      const auto formal =
          check_equivalence_formal(reference.nl, broken.nl);
      ASSERT_EQ(formal.verdict, FormalVerdict::Counterexample)
          << adders::adder_kind_name(kind) << " " << port;
      EXPECT_FALSE(
          netlist::check_equivalence(reference.nl, broken.nl).equivalent)
          << adders::adder_kind_name(kind) << " " << port;

      const auto a =
          counterexample_bus(reference.nl, formal.counterexample, "a");
      const auto b =
          counterexample_bus(reference.nl, formal.counterexample, "b");
      const auto good = testing::run_adder_netlist(
          reference.nl, reference.a, reference.b, reference.sum,
          reference.carry_out, {{a, b}});
      const auto bad = testing::run_adder_netlist(
          broken.nl, broken.a, broken.b, broken.sum, broken.carry_out,
          {{a, b}});
      EXPECT_TRUE(good[0].sum != bad[0].sum ||
                  good[0].carry_out != bad[0].carry_out)
          << adders::adder_kind_name(kind) << " " << port;
    }
  }
}

TEST(Formal, WideSeededDefectReplaysAt256) {
  // Acceptance fixture: a single corrupted gate in a 256-bit prefix
  // adder yields a SAT counterexample whose operands reproduce the
  // mismatch in the simulator — far beyond exhaustive reach.
  const auto reference =
      adders::build_adder(adders::AdderKind::RippleCarry, 256);
  auto broken = adders::build_adder(adders::AdderKind::KoggeStone, 256);
  ASSERT_TRUE(invert_output_driver(broken.nl, "sum[137]"));
  const auto result = check_equivalence_formal(reference.nl, broken.nl);
  ASSERT_EQ(result.verdict, FormalVerdict::Counterexample)
      << result.summary();
  EXPECT_EQ(result.mismatched_output, "sum[137]");

  const auto a = counterexample_bus(reference.nl, result.counterexample, "a");
  const auto b = counterexample_bus(reference.nl, result.counterexample, "b");
  const auto good = testing::run_adder_netlist(
      reference.nl, reference.a, reference.b, reference.sum,
      reference.carry_out, {{a, b}});
  const auto bad = testing::run_adder_netlist(
      broken.nl, broken.a, broken.b, broken.sum, broken.carry_out, {{a, b}});
  EXPECT_NE(good[0].sum.bit(137), bad[0].sum.bit(137));
}

// ---------------------------------------------------------------------
// Property fuzz: on netlists small enough to enumerate, the SAT verdict
// must match the exhaustive truth table exactly.

Netlist random_netlist(std::uint64_t seed, int n_inputs, int n_gates,
                       int n_outputs) {
  util::Rng rng(seed);
  Netlist nl("fuzz");
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.add_input("x[" + std::to_string(i) + "]"));
  }
  for (int g = 0; g < n_gates; ++g) {
    const auto pick = [&] {
      return nets[static_cast<std::size_t>(rng.next_below(nets.size()))];
    };
    netlist::NetId id;
    switch (rng.next_below(8)) {
      case 0: id = nl.and2(pick(), pick()); break;
      case 1: id = nl.or2(pick(), pick()); break;
      case 2: id = nl.xor2(pick(), pick()); break;
      case 3: id = nl.nand2(pick(), pick()); break;
      case 4: id = nl.xnor2(pick(), pick()); break;
      case 5: id = nl.mux2(pick(), pick(), pick()); break;
      case 6: id = nl.aoi21(pick(), pick(), pick()); break;
      default: id = nl.inv(pick()); break;
    }
    nets.push_back(id);
  }
  for (int o = 0; o < n_outputs; ++o) {
    nl.mark_output(nets[nets.size() - 1 - static_cast<std::size_t>(o)],
                   "y[" + std::to_string(o) + "]");
  }
  return nl;
}

// Exhaustively compare two netlists with identical interfaces; returns
// true iff they agree on every assignment.
bool exhaustively_equal(const Netlist& lhs, const Netlist& rhs) {
  const netlist::Simulator sl(lhs);
  const netlist::Simulator sr(rhs);
  const std::size_t n = lhs.inputs().size();
  const std::uint64_t total = std::uint64_t{1} << n;
  for (std::uint64_t base = 0; base < total; base += 64) {
    const int lanes = static_cast<int>(std::min<std::uint64_t>(64, total - base));
    std::vector<std::uint64_t> stim(n, 0);
    for (int lane = 0; lane < lanes; ++lane) {
      const std::uint64_t v = base + static_cast<std::uint64_t>(lane);
      for (std::size_t i = 0; i < n; ++i) {
        stim[i] |= ((v >> i) & 1) << lane;
      }
    }
    const auto lo = sl.eval_outputs(stim);
    const auto ro = sr.eval_outputs(stim);
    const std::uint64_t mask =
        lanes == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << lanes) - 1);
    for (std::size_t o = 0; o < lo.size(); ++o) {
      if ((lo[o] ^ ro[o]) & mask) return false;
    }
  }
  return true;
}

TEST(Formal, RandomNetlistVerdictMatchesExhaustiveEnumeration) {
  int counterexamples = 0;
  int proofs = 0;
  for (std::uint64_t iter = 0; iter < 60; ++iter) {
    const int n_inputs = 4 + static_cast<int>(iter % 7);   // 4..10
    const int n_gates = 12 + static_cast<int>(iter % 25);
    const int n_outputs = 1 + static_cast<int>(iter % 3);
    const std::uint64_t seed = 0x5eed0000 + iter;
    const Netlist lhs = random_netlist(seed, n_inputs, n_gates, n_outputs);
    // Every third pair is an identical reconstruction (guaranteed
    // Proven); the rest are independent circuits over the same ports.
    const Netlist rhs = random_netlist(iter % 3 == 0 ? seed : ~seed,
                                       n_inputs, n_gates, n_outputs);
    const auto result = check_equivalence_formal(lhs, rhs);
    ASSERT_NE(result.verdict, FormalVerdict::Unknown);
    const bool equal = exhaustively_equal(lhs, rhs);
    ASSERT_EQ(result.verdict == FormalVerdict::Proven, equal)
        << "iter " << iter << ": " << result.summary();
    if (equal) {
      ++proofs;
    } else {
      ++counterexamples;
      // The returned assignment must be a genuine witness.
      const netlist::Simulator sl(lhs);
      const netlist::Simulator sr(rhs);
      std::vector<std::uint64_t> stim(static_cast<std::size_t>(n_inputs), 0);
      for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
        stim[i] = result.counterexample[i] ? 1 : 0;
      }
      const auto lo = sl.eval_outputs(stim);
      const auto ro = sr.eval_outputs(stim);
      bool differs = false;
      for (std::size_t o = 0; o < lo.size(); ++o) {
        differs = differs || ((lo[o] ^ ro[o]) & 1);
      }
      EXPECT_TRUE(differs) << "iter " << iter;
    }
  }
  // The mix must exercise both verdicts, or the fuzz proves nothing.
  EXPECT_GT(counterexamples, 0);
  EXPECT_GT(proofs, 0);
}

// ---------------------------------------------------------------------
// Random checker diagnostics (satellite fix): the failure message names
// the output and prints the witness grouped by bus.

TEST(Equiv, FailureMessageNamesOutputAndWitness) {
  const auto exact = adders::build_adder(adders::AdderKind::RippleCarry, 16);
  const auto aca = core::build_aca(16, 4);
  const auto result = netlist::check_equivalence(exact.nl, aca.nl, 1 << 16);
  ASSERT_FALSE(result.equivalent);
  ASSERT_FALSE(result.failure_message.empty());
  EXPECT_NE(result.failure_message.find(result.mismatched_output),
            std::string::npos)
      << result.failure_message;
  EXPECT_NE(result.failure_message.find("witness inputs:"),
            std::string::npos);
  // The witness buses are the hex of the stored counterexample bits
  // (decoded name-robustly via the formal helper, same convention).
  const auto a = counterexample_bus(exact.nl, result.counterexample, "a");
  const auto b = counterexample_bus(exact.nl, result.counterexample, "b");
  EXPECT_NE(result.failure_message.find("a=0x" + a.to_hex()),
            std::string::npos)
      << result.failure_message;
  EXPECT_NE(result.failure_message.find("b=0x" + b.to_hex()),
            std::string::npos)
      << result.failure_message;
}

TEST(Equiv, MessageEmptyWhenEquivalent) {
  const auto a1 = adders::build_adder(adders::AdderKind::KoggeStone, 8);
  const auto a2 = adders::build_adder(adders::AdderKind::BrentKung, 8);
  const auto result = netlist::check_equivalence(a1.nl, a2.nl);
  ASSERT_TRUE(result.equivalent);
  EXPECT_TRUE(result.failure_message.empty());
}

TEST(Equiv, PortMismatchNamesTheOffendingPort) {
  const auto a9 = adders::build_adder(adders::AdderKind::KoggeStone, 9);
  const auto a8 = adders::build_adder(adders::AdderKind::KoggeStone, 8);
  try {
    netlist::check_equivalence(a9.nl, a8.nl);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("a[8]"), std::string::npos)
        << e.what();
  }
  // The reverse direction names the port too (rhs-only port).
  try {
    netlist::check_equivalence(a8.nl, a9.nl);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("a[8]"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace vlsa
