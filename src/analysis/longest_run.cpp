#include "analysis/longest_run.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace vlsa::analysis {

LongestRunCounter::LongestRunCounter(int max_run) : max_run_(max_run) {
  if (max_run < 0) {
    throw std::invalid_argument("LongestRunCounter: negative max_run");
  }
  ring_.resize(static_cast<std::size_t>(max_run) + 1);
}

const BigUint& LongestRunCounter::count(int n) {
  if (n < 0) throw std::invalid_argument("LongestRunCounter::count: n < 0");
  const int span = max_run_ + 1;
  if (n < next_ - span) {  // fell out of the ring: start over
    next_ = 0;
    window_sum_ = BigUint();
  }
  for (; next_ <= n; ++next_) {
    BigUint& slot = ring_[static_cast<std::size_t>(next_ % span)];
    if (next_ <= max_run_) {
      slot = BigUint::pow2(next_);
      window_sum_ += slot;
      continue;
    }
    // A_m = sum_{j=0..x} A_{m-1-j} = window_sum_.  Its slot holds
    // A_{m-x-1}, the value that drops out of the next window.
    spare_ = window_sum_;
    window_sum_ -= slot;
    window_sum_ += spare_;
    std::swap(slot, spare_);
  }
  return ring_[static_cast<std::size_t>(n % span)];
}

double LongestRunCounter::prob_at_most(int n) {
  return count(n).ratio_to_pow2(n);
}

double prob_longest_run_at_most(int n, int x) {
  if (x < 0) return n == 0 ? 1.0 : 0.0;
  if (x >= n) return 1.0;
  LongestRunCounter counter(x);
  return counter.prob_at_most(n);
}

double prob_longest_run_at_least(int n, int x) {
  if (x <= 0) return 1.0;
  if (x > n) return 0.0;
  LongestRunCounter counter(x - 1);
  const BigUint bad = BigUint::pow2(n) - counter.count(n);
  return bad.ratio_to_pow2(n);
}

int longest_run_quantile(int n, double prob) {
  // Start at Gordon's estimate, then step with the exact CDF.  The CDF
  // is monotone in x, so this returns what a scan up from x = 0 would,
  // after two or three exact evaluations instead of one per x.
  int x = 0;
  while (x < n && 1.0 - gordon_prob_run_at_least(n, x + 1) < prob) ++x;
  if (prob_longest_run_at_most(n, x) >= prob) {
    while (x > 0 && prob_longest_run_at_most(n, x - 1) >= prob) --x;
    return x;
  }
  while (x < n) {
    if (prob_longest_run_at_most(n, ++x) >= prob) break;
  }
  return x;
}

double schilling_expected_run(int n) {
  return std::log2(static_cast<double>(n)) - 2.0 / 3.0;
}

double schilling_run_variance() {
  const double ln2 = std::log(2.0);
  const double pi = 3.14159265358979323846;
  return pi * pi / (6.0 * ln2 * ln2) + 1.0 / 12.0;
}

RunMoments longest_run_moments(int n) {
  if (n < 1) throw std::invalid_argument("longest_run_moments: n < 1");
  RunMoments m;
  double prev_cdf = 0.0;
  for (int x = 0; x <= n; ++x) {
    const double cdf = prob_longest_run_at_most(n, x);
    const double pmf = cdf - prev_cdf;
    m.mean += x * pmf;
    m.variance += static_cast<double>(x) * x * pmf;
    prev_cdf = cdf;
    if (cdf > 1.0 - 1e-15) break;
  }
  m.variance -= m.mean * m.mean;
  return m;
}

double gordon_prob_run_at_least(int n, int x) {
  if (x <= 0) return 1.0;
  if (x > n) return 0.0;
  const double expected_starts =
      static_cast<double>(n - x + 1) * std::pow(2.0, -(x + 1));
  return 1.0 - std::exp(-expected_starts);
}

}  // namespace vlsa::analysis
