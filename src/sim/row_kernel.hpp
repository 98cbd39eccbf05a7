#pragma once
// Row-major ACA evaluation: one operand pair, in its own limbs.
//
// The bit-sliced engine (sim/batch_engine.hpp) pays off when a batch
// fills its lanes, as Monte-Carlo does straight from the RNG.  A
// service request arrives as two row-major BitVecs, and the soundness
// identity c_spec = c_exact & ~R_k (docs/theory.md §4) gives every
// output the service reads from those limbs alone:
//   * the exact sum, from one add-with-carry chain over the limbs
//     (util::BitVec::add_into);
//   * R_k, from AND-doubling over multi-limb shifts of p = a ^ b;
//   * flagged = OR R_k;
//   * wrong = OR (c_exact & R_k) = OR ((sum ^ p) & R_k).  Bit i of
//     sum ^ p is the carry into bit i; where R_k[i] = 1 bit i
//     propagates, so that is also the carry out of bit i, the top bit
//     included.
// One request therefore costs O(limbs * log k) word operations, with no
// transpose and no empty lanes.  It is one plain loop for every ISA
// tier: built with -mavx2 it ran no faster at width 1024.
// BatchEngineRow.* (tests/test_batch_engine.cpp) pins it to core::aca_*
// and to the sliced engine.

#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace vlsa::sim {

/// What one row-major evaluation reports besides the exact sum.
struct RowFlags {
  bool flagged = false;  ///< ER fired: a propagate run of length >= k
  /// The speculative result differs from the exact one: a sum bit or
  /// the carry out of the top bit (the sliced engine's `wrong`).
  bool wrong = false;
};

/// ACA(width, k) on one pair with no carry in: writes the exact a + b
/// into `sum`, which must be a third vector of the same width, and
/// returns the ER flag and the mispredict bit.  `run` is working memory
/// for the run mask, grown to the limb count on first use, so a caller
/// that keeps it (and `sum`) allocates nothing per call.
RowFlags row_aca_add(const util::BitVec& a, const util::BitVec& b, int k,
                     util::BitVec& sum, std::vector<std::uint64_t>& run);

}  // namespace vlsa::sim
