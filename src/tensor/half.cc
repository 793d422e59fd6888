#include "tensor/half.h"

#include "common/parallel.h"

namespace ls2 {

void convert_float_to_half(const float* src, Half* dst, int64_t n) {
  parallel_for(0, n, [&](int64_t i) { dst[i].bits = float_to_half_bits(src[i]); });
}

void convert_half_to_float(const Half* src, float* dst, int64_t n) {
  parallel_for(0, n, [&](int64_t i) { dst[i] = half_bits_to_float(src[i].bits); });
}

}  // namespace ls2
