#include "tensor/random.h"

#include <cmath>

namespace ls2 {

float Rng::normal(uint64_t stream, uint64_t index) const {
  // Box–Muller; draw two independent uniforms from disjoint sub-streams.
  const float u1 = uniform(stream * 2 + 1, index);
  const float u2 = uniform(stream * 2 + 2, index);
  const float r = std::sqrt(-2.0f * std::log(u1 + 1e-12f));
  return r * std::cos(2.0f * static_cast<float>(M_PI) * u2);
}

int64_t Rng::randint(uint64_t stream, uint64_t index, int64_t n) const {
  LS2_CHECK_GT(n, 0);
  return static_cast<int64_t>(bits(stream, index) % static_cast<uint64_t>(n));
}

// The fills skip tensors without real backing (kModelOnly parameters): the
// copy would discard the values, and every value is a pure function of
// (seed, stream, index), so skipping draws nothing from later fills.

void Rng::fill_uniform(const Tensor& t, uint64_t stream, float lo, float hi) const {
  if (!t.backs_real_memory()) return;
  const int64_t n = t.numel();
  std::vector<float> host(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    host[static_cast<size_t>(i)] = lo + (hi - lo) * uniform(stream, static_cast<uint64_t>(i));
  t.copy_from(host);
}

void Rng::fill_normal(const Tensor& t, uint64_t stream, float mean, float stddev) const {
  if (!t.backs_real_memory()) return;
  const int64_t n = t.numel();
  std::vector<float> host(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    host[static_cast<size_t>(i)] = mean + stddev * normal(stream, static_cast<uint64_t>(i));
  t.copy_from(host);
}

void Rng::fill_randint(const Tensor& t, uint64_t stream, int64_t lo, int64_t hi) const {
  LS2_CHECK_LT(lo, hi);
  if (!t.backs_real_memory()) return;
  const int64_t n = t.numel();
  std::vector<float> host(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    host[static_cast<size_t>(i)] =
        static_cast<float>(lo + randint(stream, static_cast<uint64_t>(i), hi - lo));
  t.copy_from(host);
}

}  // namespace ls2
