// Tests for the analysis module: BigUint arithmetic, the exact
// longest-run recurrence (cross-checked by brute force and by the
// published asymptotics), Theorem 1, and the ACA probability DP.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/aca_probability.hpp"
#include "analysis/biguint.hpp"
#include "analysis/longest_run.hpp"
#include "analysis/theorem1.hpp"
#include "util/rng.hpp"

namespace vlsa {
namespace {

using analysis::BigUint;
using analysis::LongestRunCounter;

TEST(BigUint, SmallArithmeticMatchesNative) {
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t x = rng.next_u64() >> 1;  // avoid overflow
    const std::uint64_t y = rng.next_u64() >> 1;
    EXPECT_EQ((BigUint(x) + BigUint(y)).to_u64(), x + y);
    if (x >= y) {
      EXPECT_EQ((BigUint(x) - BigUint(y)).to_u64(), x - y);
    }
  }
}

TEST(BigUint, CarryAcrossLimbs) {
  const BigUint big = BigUint::pow2(64);
  const BigUint almost = big - BigUint(1);
  EXPECT_EQ(almost.bit_length(), 64);
  EXPECT_EQ((almost + BigUint(1)), big);
  EXPECT_EQ(big.bit_length(), 65);
  EXPECT_EQ((big - big), BigUint(0));
}

TEST(BigUint, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUint(1) - BigUint(2), std::underflow_error);
}

TEST(BigUint, ComparisonOrdering) {
  EXPECT_LT(BigUint(3), BigUint(5));
  EXPECT_LT(BigUint(5), BigUint::pow2(64));
  EXPECT_GT(BigUint::pow2(128), BigUint::pow2(127));
  EXPECT_EQ(BigUint(0), BigUint());
}

TEST(BigUint, RatioToPow2) {
  EXPECT_DOUBLE_EQ(BigUint(1).ratio_to_pow2(1), 0.5);
  EXPECT_DOUBLE_EQ(BigUint(3).ratio_to_pow2(2), 0.75);
  EXPECT_DOUBLE_EQ(BigUint::pow2(100).ratio_to_pow2(100), 1.0);
  // Tiny ratio of huge numbers stays accurate.
  const BigUint num = BigUint::pow2(1000) + BigUint::pow2(999);
  EXPECT_DOUBLE_EQ(num.ratio_to_pow2(1010), 1.5 / 1024.0);
  EXPECT_DOUBLE_EQ(BigUint(0).ratio_to_pow2(50), 0.0);
}

TEST(BigUint, HexFormatting) {
  EXPECT_EQ(BigUint(0).to_hex(), "0");
  EXPECT_EQ(BigUint(0xdeadbeefULL).to_hex(), "deadbeef");
  EXPECT_EQ(BigUint::pow2(64).to_hex(), "10000000000000000");
}

// Brute-force count of n-bit strings with longest 1-run <= x.
std::uint64_t brute_force_count(int n, int x) {
  std::uint64_t count = 0;
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << n); ++v) {
    int run = 0, best = 0;
    for (int i = 0; i < n; ++i) {
      run = (v >> i) & 1 ? run + 1 : 0;
      best = std::max(best, run);
    }
    if (best <= x) ++count;
  }
  return count;
}

TEST(LongestRun, RecurrenceMatchesBruteForce) {
  for (int n = 1; n <= 16; ++n) {
    for (int x = 0; x <= n; ++x) {
      LongestRunCounter counter(x);
      EXPECT_EQ(counter.count(n).to_u64(), brute_force_count(n, x))
          << "n=" << n << " x=" << x;
    }
  }
}

TEST(LongestRun, KnownSmallValues) {
  // A_n(1) are the Fibonacci-like counts: strings with no "11".
  LongestRunCounter c1(1);
  EXPECT_EQ(c1.count(1).to_u64(), 2u);
  EXPECT_EQ(c1.count(2).to_u64(), 3u);
  EXPECT_EQ(c1.count(3).to_u64(), 5u);
  EXPECT_EQ(c1.count(4).to_u64(), 8u);
  EXPECT_EQ(c1.count(5).to_u64(), 13u);
}

TEST(LongestRun, ProbabilitiesAreMonotoneInX) {
  for (int x = 0; x < 12; ++x) {
    EXPECT_LE(analysis::prob_longest_run_at_most(64, x),
              analysis::prob_longest_run_at_most(64, x + 1) + 1e-15);
  }
}

TEST(LongestRun, AtLeastComplementsAtMost) {
  for (int x = 1; x <= 12; ++x) {
    const double sum = analysis::prob_longest_run_at_most(48, x - 1) +
                       analysis::prob_longest_run_at_least(48, x);
    EXPECT_NEAR(sum, 1.0, 1e-12) << x;
  }
}

TEST(LongestRun, EdgeCases) {
  EXPECT_DOUBLE_EQ(analysis::prob_longest_run_at_most(8, 8), 1.0);
  EXPECT_DOUBLE_EQ(analysis::prob_longest_run_at_least(8, 0), 1.0);
  EXPECT_DOUBLE_EQ(analysis::prob_longest_run_at_least(8, 9), 0.0);
  // P(run >= n) = 2^-n (only the all-ones string).
  EXPECT_NEAR(analysis::prob_longest_run_at_least(10, 10), std::pow(2, -10),
              1e-15);
}

TEST(LongestRun, QuantileIsTightBound) {
  for (int n : {32, 64, 256, 1024}) {
    for (double prob : {0.99, 0.9999}) {
      const int x = analysis::longest_run_quantile(n, prob);
      EXPECT_GE(analysis::prob_longest_run_at_most(n, x), prob);
      if (x > 0) {
        EXPECT_LT(analysis::prob_longest_run_at_most(n, x - 1), prob);
      }
    }
  }
}

TEST(LongestRun, Table1ShapeAt1024Bits) {
  // The paper's Sec. 3 narrative: for a 1024-bit adder the carry
  // propagates < ~17 bits in 99% of cases and < ~23 bits in 99.99%.
  const int q99 = analysis::longest_run_quantile(1024, 0.99);
  const int q9999 = analysis::longest_run_quantile(1024, 0.9999);
  EXPECT_GE(q99, 14);
  EXPECT_LE(q99, 18);
  EXPECT_GE(q9999, 20);
  EXPECT_LE(q9999, 25);
  EXPECT_GT(q9999, q99);
}

TEST(LongestRun, SchillingExpectationMatchesExactMean) {
  // E[longest run] computed from the exact distribution vs log2(n) - 2/3.
  for (int n : {256, 1024}) {
    double mean = 0.0;
    for (int x = 1; x <= n; ++x) {
      mean += x * (analysis::prob_longest_run_at_most(n, x) -
                   analysis::prob_longest_run_at_most(n, x - 1));
      if (analysis::prob_longest_run_at_most(n, x) > 1.0 - 1e-14) break;
    }
    EXPECT_NEAR(mean, analysis::schilling_expected_run(n), 0.5) << n;
  }
}

TEST(LongestRun, GordonApproximationTracksExactTail) {
  for (int n : {128, 1024}) {
    for (int x = 10; x <= 20; ++x) {
      const double exact = analysis::prob_longest_run_at_least(n, x);
      const double approx = analysis::gordon_prob_run_at_least(n, x);
      EXPECT_NEAR(approx / exact, 1.0, 0.15) << "n=" << n << " x=" << x;
    }
  }
}

TEST(LongestRunCounter, RingRecomputesValuesBelowIt) {
  // The counter keeps only the last x+1 values: asking for a smaller n
  // (count(10) after count(100)) starts over, a value still in the ring
  // is returned as is, and every answer equals a full memo of the
  // recurrence.
  constexpr int kMaxN = 300;
  for (const int x : {0, 1, 5, 23}) {
    std::vector<BigUint> memo;
    for (int m = 0; m <= kMaxN; ++m) {
      if (m <= x) {
        memo.push_back(BigUint::pow2(m));
        continue;
      }
      BigUint sum;
      for (int j = 0; j <= x; ++j) {
        sum += memo[static_cast<std::size_t>(m - 1 - j)];
      }
      memo.push_back(sum);
    }
    LongestRunCounter counter(x);
    util::Rng rng(static_cast<std::uint64_t>(x) + 1);
    std::vector<int> order{100, 10, 300, 300 - x, 299, 0, x, x + 1, 100 - x};
    for (int i = 0; i < 40; ++i) {
      order.push_back(static_cast<int>(rng.next_below(kMaxN + 1)));
    }
    for (const int n : order) {
      ASSERT_EQ(counter.count(n), memo[static_cast<std::size_t>(n)])
          << "x=" << x << " n=" << n;
    }
  }
}

TEST(LongestRunQuantile, EqualsLinearScanForEveryWidthTo2048) {
  // The quantile starts at Gordon's estimate and steps; a scan up from
  // x = 0 over the same exact CDF must give the same answer everywhere.
  constexpr int kMaxN = 2048;
  constexpr int kMaxX = 40;
  // cdf[x][n] = P(longest run <= x), one upward sweep of n per x.
  std::vector<std::vector<double>> cdf(
      kMaxX + 1, std::vector<double>(static_cast<std::size_t>(kMaxN) + 1));
  for (int x = 0; x <= kMaxX; ++x) {
    LongestRunCounter counter(x);
    for (int n = 0; n <= kMaxN; ++n) {
      cdf[x][static_cast<std::size_t>(n)] =
          x >= n ? 1.0 : counter.prob_at_most(n);
    }
  }
  for (int n = 1; n <= kMaxN; ++n) {
    for (const double prob : {0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-6}) {
      int expect = n;
      for (int x = 0; x <= n; ++x) {
        ASSERT_LE(x, kMaxX) << "n=" << n << " prob=" << prob;
        if (cdf[static_cast<std::size_t>(x)][static_cast<std::size_t>(n)] >=
            prob) {
          expect = x;
          break;
        }
      }
      ASSERT_EQ(analysis::longest_run_quantile(n, prob), expect)
          << "n=" << n << " prob=" << prob;
    }
  }
}

TEST(Theorem1, ClosedFormMatchesRecurrence) {
  for (int k = 1; k <= 30; ++k) {
    EXPECT_DOUBLE_EQ(analysis::expected_flips_recurrence(k),
                     static_cast<double>(analysis::expected_flips_closed_form(k)));
  }
}

TEST(Theorem1, MonteCarloAgreesWithClosedForm) {
  util::Rng rng(77);
  for (int k : {2, 4, 7}) {
    const double mc = analysis::expected_flips_monte_carlo(k, 20000, rng);
    const double exact =
        static_cast<double>(analysis::expected_flips_closed_form(k));
    EXPECT_NEAR(mc / exact, 1.0, 0.06) << k;
  }
}

TEST(Theorem1, RejectsBadArgs) {
  EXPECT_THROW(analysis::expected_flips_closed_form(0), std::invalid_argument);
  EXPECT_THROW(analysis::expected_flips_closed_form(63), std::invalid_argument);
}

TEST(AcaProbability, FlagProbabilityEqualsRunTail) {
  EXPECT_DOUBLE_EQ(analysis::aca_flag_probability(64, 8),
                   analysis::prob_longest_run_at_least(64, 8));
}

TEST(AcaProbability, WrongNeverExceedsFlag) {
  for (int n : {16, 64, 256}) {
    for (int k = 2; k <= 12; k += 2) {
      const double wrong = analysis::aca_wrong_probability(n, k);
      const double flag = analysis::aca_flag_probability(n, k);
      EXPECT_LE(wrong, flag + 1e-15) << "n=" << n << " k=" << k;
      EXPECT_GE(analysis::aca_false_positive_probability(n, k), -1e-15);
    }
  }
}

TEST(AcaProbability, WindowBeyondWidthIsAlwaysExact) {
  EXPECT_DOUBLE_EQ(analysis::aca_wrong_probability(8, 9), 0.0);
  EXPECT_DOUBLE_EQ(analysis::aca_flag_probability(8, 9), 0.0);
}

TEST(AcaProbability, ChooseWindowMeetsTarget) {
  for (int n : {64, 256, 1024}) {
    for (double target : {0.01, 0.0001}) {
      const int k = analysis::choose_window(n, target);
      EXPECT_LE(analysis::aca_flag_probability(n, k), target);
      EXPECT_GT(analysis::aca_flag_probability(n, k - 1), target);
    }
  }
}

TEST(AcaProbability, ExpectedCyclesFormula) {
  const double p = analysis::aca_flag_probability(64, 10);
  EXPECT_DOUBLE_EQ(analysis::expected_vlsa_cycles(64, 10, 2), 1.0 + 2 * p);
  EXPECT_DOUBLE_EQ(analysis::expected_vlsa_cycles(64, 10, 3), 1.0 + 3 * p);
}

TEST(AcaProbability, DpDecreasesGeometricallyInK) {
  // Each extra window bit should roughly halve the error probability once
  // the probability is small (the Poisson/extreme-value regime).
  double prev = analysis::aca_wrong_probability(1024, 12);
  for (int k = 13; k <= 20; ++k) {
    const double cur = analysis::aca_wrong_probability(1024, k);
    EXPECT_LT(cur, prev);
    EXPECT_NEAR(cur / prev, 0.5, 0.12) << k;
    prev = cur;
  }
}

}  // namespace
}  // namespace vlsa
