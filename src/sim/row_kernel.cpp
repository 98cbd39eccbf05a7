#include "sim/row_kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace vlsa::sim {

RowFlags row_aca_add(const util::BitVec& a, const util::BitVec& b, int k,
                     util::BitVec& sum, std::vector<std::uint64_t>& run) {
  if (a.width() < 1) throw std::invalid_argument("row_aca_add: empty width");
  if (&sum == &a || &sum == &b) {
    throw std::invalid_argument("row_aca_add: sum aliases an operand");
  }
  if (k < 1) throw std::invalid_argument("row_aca_add: window must be >= 1");
  a.add_into(b, sum);  // throws unless all three widths match
  const int limbs = static_cast<int>(a.limbs().size());
  const std::uint64_t* av = a.limbs().data();
  const std::uint64_t* bv = b.limbs().data();
  const std::uint64_t* s = sum.limbs().data();

  if (run.size() < static_cast<std::size_t>(limbs)) {
    run.resize(static_cast<std::size_t>(limbs));
  }
  std::uint64_t* r = run.data();
  std::uint64_t any = 0;
  for (int i = 0; i < limbs; ++i) {
    r[i] = av[i] ^ bv[i];
    any |= r[i];
  }
  // R_k by AND-doubling across the limbs.  A shift moves every bit of a
  // limb at once, so this costs O(limbs * log k); the sliced kernel,
  // whose bit positions are separate words, builds R_k from block
  // prefix/suffix ANDs instead.  After a step, bit i is set iff bits
  // [i-t+1 .. i] all propagate.  R << step shifts zeros in at bit 0, so
  // a run that would reach below bit 0 drops out and R_k[i] = 0 for
  // i < k-1.  The loop stops as soon as no run survives; that skips
  // work and changes no output.
  for (int t = 1; t < k && any != 0;) {
    const int step = std::min(t, k - t);
    const int words = step / 64;
    const int bits = step % 64;
    any = 0;
    // Descending, so the limbs (R << step) reads are not yet updated.
    for (int i = limbs - 1; i >= 0; --i) {
      std::uint64_t shifted = 0;
      if (i >= words) {
        shifted = r[i - words] << bits;
        if (bits != 0 && i > words) {
          shifted |= r[i - words - 1] >> (64 - bits);
        }
      }
      r[i] &= shifted;
      any |= r[i];
    }
    t += step;
  }
  RowFlags out;
  out.flagged = any != 0;
  if (!out.flagged) return out;
  // c_exact & R_k, read from sum ^ p: bit i of sum ^ p is the carry
  // into bit i, and where R_k[i] = 1 bit i propagates, so the carry out
  // of bit i equals the carry into it (docs/theory.md §4).  The top
  // bit's carry out needs no separate term for the same reason.
  std::uint64_t miss = 0;
  for (int i = 0; i < limbs; ++i) miss |= (s[i] ^ av[i] ^ bv[i]) & r[i];
  out.wrong = miss != 0;
  return out;
}

}  // namespace vlsa::sim
