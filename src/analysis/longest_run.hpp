#pragma once
// Exact and asymptotic statistics of the longest run of 1s in a uniform
// random n-bit string (Sec. 3.1 of the paper).
//
// Because p_i = a_i XOR b_i and the XOR of two independent uniform
// operands is uniform, the longest *propagate chain* in a random addition
// has exactly this distribution — it is the quantity every ACA design
// decision is driven by.

#include "analysis/biguint.hpp"

namespace vlsa::analysis {

/// Incremental evaluator of the paper's recurrence
///   A_n(x) = 2^n                          for n <= x,
///   A_n(x) = sum_{j=0..x} A_{n-1-j}(x)    otherwise,
/// where A_n(x) counts n-bit strings whose longest 1-run is <= x.
/// Only the last x+1 values are kept, in a ring of reused buffers, so
/// sweeping n upward is O(1) big-adds per step and allocates nothing
/// once the buffers have grown; an n below the ring recomputes from 0.
class LongestRunCounter {
 public:
  /// `max_run` is x; must be >= 0.
  explicit LongestRunCounter(int max_run);

  int max_run() const { return max_run_; }

  /// A_n(x); n >= 0.  The reference stays valid until the next call.
  const BigUint& count(int n);

  /// P(longest run <= x) for a uniform n-bit string.
  double prob_at_most(int n);

 private:
  int max_run_;
  int next_ = 0;              // the next m to compute
  std::vector<BigUint> ring_;  // ring_[m % (x+1)] = A_m(x), m < next_
  BigUint window_sum_;         // A_{next_-x-1} + ... + A_{next_-1}
  BigUint spare_;              // reused temporary
};

/// P(longest 1-run of a uniform n-bit string <= x).  Exact.
double prob_longest_run_at_most(int n, int x);

/// P(longest 1-run >= x).  Exact (big-integer subtraction, so small tail
/// probabilities keep full double precision).
double prob_longest_run_at_least(int n, int x);

/// Smallest x such that P(longest run <= x) >= prob — the per-width bound
/// reported in Table 1 (prob = 0.99 and 0.9999 there).
int longest_run_quantile(int n, double prob);

/// Schilling's asymptotic expectation: E[longest run] ≈ log2(n) - 2/3.
double schilling_expected_run(int n);

/// Asymptotic variance of the longest run: pi^2/(6 ln^2 2) + 1/12
/// ≈ 3.507 (width-independent up to small oscillations).  The paper's
/// text prints "variance 1.873" for this constant; our exact recurrence
/// (longest_run_moments) converges to ≈ 3.5, matching the published
/// extreme-value asymptotics, so we treat the paper's figure as a typo
/// and report the exact value.
double schilling_run_variance();

/// Exact mean and variance of the longest-run distribution for a uniform
/// n-bit string, from the recurrence.
struct RunMoments {
  double mean = 0.0;
  double variance = 0.0;
};
RunMoments longest_run_moments(int n);

/// Poisson/extreme-value tail approximation (Gordon, Schilling, Waterman):
/// P(longest run >= x) ≈ 1 - exp(-(n - x + 1) * 2^-(x+1)).
double gordon_prob_run_at_least(int n, int x);

}  // namespace vlsa::analysis
