#include <algorithm>

#include "bench.hpp"

namespace wallbench {

namespace {

/// splitmix64: the benchmark's own generator, so inputs depend only on
/// the seed and never on the program's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

BitVec random_bits(InputRng& rng, int width) {
  BitVec v(width);
  for (auto& limb : v.limbs()) limb = rng.next();
  const int top = width % 64;
  if (top != 0) v.limbs().back() &= (std::uint64_t{1} << top) - 1;
  return v;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  InputRng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  rng.next();
  return rng.next();
}

Pool make_pool(Mix mix, std::uint64_t seed, std::size_t pairs) {
  InputRng rng(derive_seed(seed, 0x9001));
  Pool pool;
  pool.a.reserve(pairs);
  pool.b.reserve(pairs);
  pool.sum.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    BitVec a = random_bits(rng, kWidth);
    BitVec b(kWidth);
    if (mix == Mix::Uniform) {
      b = random_bits(rng, kWidth);
    } else {
      b = ~a;
      const int flips = std::max(1, kWidth / 32);
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<int>(rng.below(kWidth));
        b.set_bit(pos, !b.bit(pos));
      }
    }
    pool.sum.push_back(a.add_with_carry(b).sum);
    pool.a.push_back(std::move(a));
    pool.b.push_back(std::move(b));
  }
  return pool;
}

bool completion_ok(const Pool& pool, std::size_t index, bool status_ok,
                   const BitVec& sum, bool flagged, bool wrong) {
  return status_ok && index < pool.size() && sum == pool.sum[index] &&
         (!wrong || flagged);
}

}  // namespace wallbench
