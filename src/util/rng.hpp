// Deterministic pseudo-random generation.
//
// All randomness in the library flows through Rng, seeded explicitly by the
// caller, so every simulation and benchmark is bit-reproducible. The engine
// is xoshiro256** (Blackman & Vigna), seeded via splitmix64 as its authors
// recommend. No wall-clock or std::random_device anywhere.
#pragma once

#include <cstdint>

#include "util/assert.hpp"

namespace ppg {

/// splitmix64 step: used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
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

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method, which is unbiased and branch-light.
  std::uint64_t next_below(std::uint64_t bound) {
    PPG_DCHECK(bound > 0);
    using u128 = unsigned __int128;
    std::uint64_t x = (*this)();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) {
    PPG_DCHECK(lo <= hi);
    return lo + next_below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability prob (clamped to [0,1]).
  bool next_bool(double prob) { return next_double() < prob; }

  /// Derive an independent child generator (for per-processor streams).
  Rng fork() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace ppg
