// Integer math helpers used throughout the box machinery: the paper's
// box heights are powers of two in [k/p, k], so power-of-two rounding and
// integer log2 are pervasive.
#pragma once

#include <bit>
#include <cstdint>

#include "util/assert.hpp"

namespace ppg {

/// floor(log2(x)); requires x >= 1.
constexpr std::uint32_t ilog2_floor(std::uint64_t x) {
  PPG_DCHECK(x >= 1);
  return static_cast<std::uint32_t>(63 - std::countl_zero(x));
}

/// ceil(log2(x)); requires x >= 1.
constexpr std::uint32_t ilog2_ceil(std::uint64_t x) {
  PPG_DCHECK(x >= 1);
  return x == 1 ? 0u : ilog2_floor(x - 1) + 1u;
}

/// Largest power of two <= x; requires x >= 1.
constexpr std::uint64_t pow2_floor(std::uint64_t x) {
  return std::uint64_t{1} << ilog2_floor(x);
}

/// Smallest power of two >= x; requires x >= 1.
constexpr std::uint64_t pow2_ceil(std::uint64_t x) {
  return std::uint64_t{1} << ilog2_ceil(x);
}

constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// ceil(a / b) for positive integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  PPG_DCHECK(b > 0);
  return (a + b - 1) / b;
}

/// Saturating doubling sequence helper: value of h * 2^i clamped to hi.
constexpr std::uint64_t shl_clamped(std::uint64_t h, std::uint32_t i,
                                    std::uint64_t hi) {
  if (i >= 64 || h > (hi >> i)) return hi;
  return h << i;
}

/// Exact n / d and n % d by a divisor d >= 1 fixed up front, with
/// multiplies in place of the hardware division (Lemire, Kaser and Kurz,
/// "Faster Remainder by Direct Computation", 2019). With m = ceil(2^64/d),
/// n / d is the high word of m*n and n % d the high word of
/// (m*n mod 2^64) * d, both exact whenever n and d are below 2^32.
/// Larger numerators (and divisors) take the hardware division. d = 1 has
/// no 64-bit m: it keeps m = 0, which gives remainder 0, and the quotient
/// adds n back through a mask, so no branch tests the divisor.
class Divisor {
 public:
  explicit Divisor(std::uint64_t d) : d_(d) {
    PPG_CHECK(d >= 1);
    if (d == 1) {
      one_mask_ = ~std::uint64_t{0};
    } else if (d <= kFastMax) {
      m_ = ~std::uint64_t{0} / d + 1;
    } else {
      fast_max_ = 0;  // only n = 0 (m = 0: quotient and remainder 0)
    }
  }

  std::uint64_t divisor() const { return d_; }

  friend std::uint64_t operator/(std::uint64_t n, const Divisor& d) {
    if (n > d.fast_max_) [[unlikely]]
      return n / d.d_;
    return mul_high(d.m_, n) + (n & d.one_mask_);
  }

  friend std::uint64_t operator%(std::uint64_t n, const Divisor& d) {
    if (n > d.fast_max_) [[unlikely]]
      return n % d.d_;
    return mul_high(d.m_ * n, d.d_);
  }

 private:
  static constexpr std::uint64_t kFastMax = 0xFFFF'FFFF;

  static std::uint64_t mul_high(std::uint64_t a, std::uint64_t b) {
    using u128 = unsigned __int128;
    return static_cast<std::uint64_t>(
        (static_cast<u128>(a) * static_cast<u128>(b)) >> 64);
  }

  std::uint64_t d_;
  std::uint64_t m_ = 0;
  std::uint64_t one_mask_ = 0;
  std::uint64_t fast_max_ = kFastMax;
};

}  // namespace ppg
