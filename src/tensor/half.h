// Software IEEE 754 binary16 ("half") implementation.
//
// The paper stores parameters/gradients/activations in FP16 and converts to
// FP32 in registers for arithmetic ("on-the-fly conversion", §IV-C). We
// reproduce exactly that discipline: Half is a 16-bit storage type with
// round-to-nearest-even conversion; all arithmetic happens in float.
#pragma once

#include <cstdint>
#include <cstring>

namespace ls2 {

/// Convert binary32 -> binary16 bits with round-to-nearest-even,
/// preserving NaN/Inf and flushing values below the subnormal range to
/// signed zero the same way CUDA's __float2half does. Inline and nearly
/// branch-free: every FP16 kernel load and store goes through it.
inline uint16_t float_to_half_bits(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint32_t sign = (x >> 16) & 0x8000u;
  x &= 0x7fffffffu;
  uint32_t h;
  if (x >= 0x47800000u) {
    // >= 65536, Inf or NaN: Inf, or the canonical quiet NaN.
    h = x > 0x7f800000u ? 0x7e00u : 0x7c00u;
  } else if (x < 0x38800000u) {
    // Below the smallest normal half: adding 0.5 lines the subnormal half
    // ulp (2^-24) up with the float ulp, so the FP add itself rounds to
    // nearest-even and the low bits are the half mantissa.
    float a;
    std::memcpy(&a, &x, sizeof(a));
    a += 0.5f;
    uint32_t bits;
    std::memcpy(&bits, &a, sizeof(bits));
    h = bits - 0x3f000000u;
  } else {
    // Normal: rebias the exponent (127 -> 15) and round the 13 dropped
    // mantissa bits to nearest-even; a mantissa carry bumps the exponent,
    // up to Inf.
    const uint32_t odd = (x >> 13) & 1u;
    h = (x + 0xc8000fffu + odd) >> 13;
  }
  return static_cast<uint16_t>(sign | h);
}

/// Convert binary16 bits -> binary32 (exact).
inline float half_bits_to_float(uint16_t bits) {
  const uint32_t h = bits;
  uint32_t x = (h & 0x7fffu) << 13;  // exponent and mantissa, unbiased
  const uint32_t exp = x & 0x0f800000u;
  x += 0x38000000u;  // rebias 15 -> 127
  float f;
  if (exp == 0x0f800000u) {
    x += 0x38000000u;  // Inf / NaN: exponent all ones
    std::memcpy(&f, &x, sizeof(f));
  } else if (exp == 0) {
    // Zero or subnormal: m * 2^-24 == (1 + m * 2^-10) * 2^-14 - 2^-14,
    // and the FP subtraction is exact.
    x += 0x00800000u;
    std::memcpy(&f, &x, sizeof(f));
    f -= 6.103515625e-05f;  // 2^-14
  } else {
    std::memcpy(&f, &x, sizeof(f));
  }
  std::memcpy(&x, &f, sizeof(x));
  x |= (h & 0x8000u) << 16;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

/// 16-bit floating point storage type. Implicit conversion mirrors CUDA
/// __half ergonomics; arithmetic promotes to float.
struct Half {
  uint16_t bits = 0;

  Half() = default;
  explicit Half(float f) : bits(float_to_half_bits(f)) {}
  operator float() const { return half_bits_to_float(bits); }

  static Half from_bits(uint16_t b) {
    Half h;
    h.bits = b;
    return h;
  }

  Half& operator=(float f) {
    bits = float_to_half_bits(f);
    return *this;
  }
  Half& operator+=(float f) {
    *this = static_cast<float>(*this) + f;
    return *this;
  }
};

static_assert(sizeof(Half) == 2, "Half must be 16 bits");

/// Bulk conversions (the FP16<->FP32 "copy" kernels of the baseline trainer).
void convert_float_to_half(const float* src, Half* dst, int64_t n);
void convert_half_to_float(const Half* src, float* dst, int64_t n);

/// Largest finite half value (65504); used by overflow tests and loss-scale
/// logic.
constexpr float kHalfMax = 65504.0f;

}  // namespace ls2
