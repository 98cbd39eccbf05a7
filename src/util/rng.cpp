#include "util/rng.hpp"

#include <stdexcept>

namespace vlsa::util {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  for (auto& s : state_) s = splitmix64(seed);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: zero bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % bound;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) { return next_double() < p; }

Rng Rng::split(std::uint64_t stream) const {
  std::uint64_t x = stream;
  std::uint64_t seed = splitmix64(x) ^ state_[0] ^ rotl(state_[1], 17) ^
                       rotl(state_[2], 31) ^ rotl(state_[3], 47);
  return Rng(splitmix64(seed));
}

BitVec Rng::next_bits(int width) {
  BitVec v(width);
  for (auto& limb : v.limbs()) limb = next_u64();
  if (width % 64 != 0 && !v.limbs().empty()) {
    v.limbs().back() &= (~std::uint64_t{0}) >> (64 - width % 64);
  }
  return v;
}

}  // namespace vlsa::util
