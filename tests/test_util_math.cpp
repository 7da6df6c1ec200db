#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(MathUtil, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0u);
  EXPECT_EQ(ilog2_floor(2), 1u);
  EXPECT_EQ(ilog2_floor(3), 1u);
  EXPECT_EQ(ilog2_floor(4), 2u);
  EXPECT_EQ(ilog2_floor(1023), 9u);
  EXPECT_EQ(ilog2_floor(1024), 10u);
  EXPECT_EQ(ilog2_floor(UINT64_MAX), 63u);
}

TEST(MathUtil, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0u);
  EXPECT_EQ(ilog2_ceil(2), 1u);
  EXPECT_EQ(ilog2_ceil(3), 2u);
  EXPECT_EQ(ilog2_ceil(4), 2u);
  EXPECT_EQ(ilog2_ceil(5), 3u);
  EXPECT_EQ(ilog2_ceil(1024), 10u);
  EXPECT_EQ(ilog2_ceil(1025), 11u);
}

TEST(MathUtil, Pow2Floor) {
  EXPECT_EQ(pow2_floor(1), 1u);
  EXPECT_EQ(pow2_floor(2), 2u);
  EXPECT_EQ(pow2_floor(3), 2u);
  EXPECT_EQ(pow2_floor(100), 64u);
  EXPECT_EQ(pow2_floor(128), 128u);
}

TEST(MathUtil, Pow2Ceil) {
  EXPECT_EQ(pow2_ceil(1), 1u);
  EXPECT_EQ(pow2_ceil(3), 4u);
  EXPECT_EQ(pow2_ceil(100), 128u);
  EXPECT_EQ(pow2_ceil(128), 128u);
}

TEST(MathUtil, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2((1ULL << 40) + 1));
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 3), 1u);
  EXPECT_EQ(ceil_div(3, 3), 1u);
  EXPECT_EQ(ceil_div(4, 3), 2u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
}

TEST(MathUtil, ShlClamped) {
  EXPECT_EQ(shl_clamped(1, 3, 100), 8u);
  EXPECT_EQ(shl_clamped(1, 7, 100), 100u);  // 128 > 100 clamps
  EXPECT_EQ(shl_clamped(5, 70, 1000), 1000u);  // shift overflow clamps
}

// --- Divisor ---------------------------------------------------------------
// Each check compares against the hardware / and %, on both sides of the
// multiply-high path's 2^32 limit.

void expect_divides_like_hardware(std::uint64_t d, std::uint64_t n) {
  const Divisor divisor(d);
  ASSERT_EQ(n / divisor, n / d) << "n=" << n << " d=" << d;
  ASSERT_EQ(n % divisor, n % d) << "n=" << n << " d=" << d;
}

constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;

TEST(Divisor, MatchesHardwareAtEdges) {
  for (const std::uint64_t d :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{7}, std::uint64_t{798}, kTwo32 - 1}) {
    EXPECT_EQ(Divisor(d).divisor(), d);
    for (const std::uint64_t n :
         {std::uint64_t{0}, d - 1, d, d + 1, kTwo32 - 2, kTwo32 - 1, kTwo32,
          kTwo32 + 1, std::uint64_t{1} << 40, UINT64_MAX})
      expect_divides_like_hardware(d, n);
  }
}

TEST(Divisor, MatchesHardwareBeyondTheFastPath) {
  // Divisors of 2^32 and above always take the hardware division, except
  // for the numerator 0.
  for (const std::uint64_t d : {kTwo32, kTwo32 + 1, UINT64_MAX})
    for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                                  kTwo32 - 1, kTwo32, d - 1, d, UINT64_MAX})
      expect_divides_like_hardware(d, n);
}

TEST(Divisor, MatchesHardwareRandomized) {
  Rng rng(33);
  for (int trial = 0; trial < 200000; ++trial) {
    // Divisors log-uniform below 2^32, numerators mostly below 2^32 (the
    // multiply-high path) and sometimes above it.
    const std::uint64_t d = 1 + rng.next_below(std::uint64_t{1}
                                               << rng.next_in(1, 32));
    const std::uint64_t n =
        rng.next_bool(0.9) ? rng.next_below(kTwo32) : rng();
    expect_divides_like_hardware(d, n);
  }
}

TEST(DivisorDeathTest, ZeroDivisorIsRejected) {
  EXPECT_DEATH(Divisor(0), "d >= 1");
}

class Pow2Roundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Pow2Roundtrip, FloorCeilBracket) {
  const std::uint64_t x = GetParam();
  EXPECT_LE(pow2_floor(x), x);
  EXPECT_GE(pow2_ceil(x), x);
  EXPECT_TRUE(is_pow2(pow2_floor(x)));
  EXPECT_TRUE(is_pow2(pow2_ceil(x)));
  if (is_pow2(x)) {
    EXPECT_EQ(pow2_floor(x), x);
    EXPECT_EQ(pow2_ceil(x), x);
  } else {
    EXPECT_EQ(pow2_ceil(x), 2 * pow2_floor(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Values, Pow2Roundtrip,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                                           31, 33, 100, 1000, 4095, 4096,
                                           4097, 1'000'000));

}  // namespace
}  // namespace ppg
