#include "tensor/half.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace ls2 {
namespace {

TEST(HalfTest, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    Half h(static_cast<float>(i));
    EXPECT_EQ(static_cast<float>(h), static_cast<float>(i)) << "i=" << i;
  }
}

TEST(HalfTest, KnownBitPatterns) {
  EXPECT_EQ(Half(0.0f).bits, 0x0000);
  EXPECT_EQ(Half(-0.0f).bits, 0x8000);
  EXPECT_EQ(Half(1.0f).bits, 0x3c00);
  EXPECT_EQ(Half(-1.0f).bits, 0xbc00);
  EXPECT_EQ(Half(2.0f).bits, 0x4000);
  EXPECT_EQ(Half(0.5f).bits, 0x3800);
  EXPECT_EQ(Half(65504.0f).bits, 0x7bff);  // max finite
}

TEST(HalfTest, OverflowToInfinity) {
  EXPECT_EQ(Half(65520.0f).bits, 0x7c00);  // rounds up to inf
  EXPECT_EQ(Half(1e30f).bits, 0x7c00);
  EXPECT_EQ(Half(-1e30f).bits, 0xfc00);
  EXPECT_TRUE(std::isinf(static_cast<float>(Half(1e30f))));
}

TEST(HalfTest, NanPropagates) {
  Half h(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(static_cast<float>(h)));
}

TEST(HalfTest, SubnormalRange) {
  // Smallest positive subnormal is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(Half(tiny).bits, 0x0001);
  EXPECT_FLOAT_EQ(static_cast<float>(Half::from_bits(0x0001)), tiny);
  // Below half of the smallest subnormal flushes to zero.
  EXPECT_EQ(Half(std::ldexp(1.0f, -26)).bits, 0x0000);
}

TEST(HalfTest, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1+2^-10);
  // RNE picks the even mantissa (1.0).
  EXPECT_EQ(Half(1.0f + std::ldexp(1.0f, -11)).bits, 0x3c00);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; RNE picks 1+2^-9
  // (even mantissa 2).
  EXPECT_EQ(Half(1.0f + 3.0f * std::ldexp(1.0f, -11)).bits, 0x3c02);
}

TEST(HalfTest, RoundTripAllBitPatterns) {
  // Every finite half value must survive half -> float -> half exactly.
  for (uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const uint16_t b = static_cast<uint16_t>(bits);
    const uint32_t exp = (b >> 10) & 0x1f;
    const uint32_t mant = b & 0x3ff;
    if (exp == 0x1f && mant != 0) continue;  // NaNs don't round-trip bitwise
    const float f = half_bits_to_float(b);
    EXPECT_EQ(float_to_half_bits(f), b) << "bits=0x" << std::hex << bits;
  }
}

// half -> float equals the format's definition for every bit pattern.
TEST(HalfTest, HalfToFloatMatchesDefinitionForAllBitPatterns) {
  for (uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const uint16_t b = static_cast<uint16_t>(bits);
    const int exp = (b >> 10) & 0x1f;
    const int mant = b & 0x3ff;
    const double sign = (b & 0x8000) ? -1.0 : 1.0;
    const float f = half_bits_to_float(b);
    if (exp == 0x1f) {
      EXPECT_TRUE(mant == 0 ? std::isinf(f) : std::isnan(f)) << std::hex << bits;
      continue;
    }
    const double want = exp == 0 ? sign * std::ldexp(mant, -24)
                                 : sign * std::ldexp(1024 + mant, exp - 25);
    EXPECT_EQ(f, static_cast<float>(want)) << std::hex << bits;
    EXPECT_EQ(std::signbit(f), (b & 0x8000) != 0) << std::hex << bits;
  }
}

// float -> half rounds to the nearest half, ties to even, and overflows to
// Inf at 65520 — checked on a prime-strided sweep over all 2^32 floats.
TEST(HalfTest, FloatToHalfIsNearestEvenOnBitPatternSweep) {
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 997) {
    const uint32_t x = static_cast<uint32_t>(u);
    float f;
    std::memcpy(&f, &x, sizeof(f));
    const uint16_t h = float_to_half_bits(f);
    ASSERT_EQ((h & 0x8000) != 0, std::signbit(f)) << std::hex << x;
    const uint16_t mag = h & 0x7fff;
    if (std::isnan(f)) {
      ASSERT_EQ(mag, 0x7e00) << std::hex << x;
      continue;
    }
    const double a = std::fabs(static_cast<double>(f));
    if (a >= 65520.0) {
      ASSERT_EQ(mag, 0x7c00) << std::hex << x;
      continue;
    }
    const double err = std::fabs(a - half_bits_to_float(mag));
    const bool even = (mag & 1) == 0;
    if (mag > 0) {
      const double lo = a - half_bits_to_float(static_cast<uint16_t>(mag - 1));
      ASSERT_TRUE(err < std::fabs(lo) || (err == std::fabs(lo) && even)) << std::hex << x;
    }
    if (mag + 1 < 0x7c00) {
      const double hi = half_bits_to_float(static_cast<uint16_t>(mag + 1)) - a;
      ASSERT_TRUE(err < std::fabs(hi) || (err == std::fabs(hi) && even)) << std::hex << x;
    }
  }
}

TEST(HalfTest, RelativeErrorWithinHalfUlp) {
  // Conversion error for normal-range values must be <= 2^-11 relative.
  for (int i = 0; i < 10000; ++i) {
    const float f = 0.001f + 60000.0f * static_cast<float>(i) / 10000.0f;
    const float back = static_cast<float>(Half(f));
    EXPECT_LE(std::abs(back - f) / f, std::ldexp(1.0f, -11)) << f;
  }
}

TEST(HalfTest, BulkConvertMatchesScalar) {
  const int64_t n = 10000;
  std::vector<float> src(n);
  for (int64_t i = 0; i < n; ++i)
    src[static_cast<size_t>(i)] = std::sin(static_cast<float>(i)) * 100.0f;
  std::vector<Half> h(n);
  convert_float_to_half(src.data(), h.data(), n);
  std::vector<float> back(n);
  convert_half_to_float(h.data(), back.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(h[static_cast<size_t>(i)].bits, Half(src[static_cast<size_t>(i)]).bits);
    EXPECT_EQ(back[static_cast<size_t>(i)],
              static_cast<float>(Half(src[static_cast<size_t>(i)])));
  }
}

}  // namespace
}  // namespace ls2
