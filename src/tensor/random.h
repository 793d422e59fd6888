// Counter-based pseudo-random generator.
//
// CUDA training kernels use Philox so that dropout masks can be regenerated
// from (seed, offset) instead of stored. We implement the same *interface*
// discipline with a splitmix64-based counter hash: every random number is a
// pure function of (seed, stream, index), so fused and unfused kernels draw
// identical masks and every run is reproducible — a property the policy
// equivalence tests rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ls2 {

class Rng {
 public:
  explicit Rng(uint64_t seed) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  /// Raw 64 random bits for (stream, index). Inline, so a loop over
  /// indices of one stream computes the stream's hash once.
  uint64_t bits(uint64_t stream, uint64_t index) const {
    // Two rounds decorrelate (stream, index) pairs that differ in one word.
    return mix(mix(seed_ ^ (stream * 0xd1342543de82ef95ull)) ^ index);
  }

  /// Uniform float in [0, 1).
  float uniform(uint64_t stream, uint64_t index) const {
    // Use the top 24 bits for a dyadic rational in [0,1).
    return static_cast<float>(bits(stream, index) >> 40) * (1.0f / 16777216.0f);
  }

  /// Standard normal via Box–Muller on two counter draws.
  float normal(uint64_t stream, uint64_t index) const;

  /// Integer in [0, n).
  int64_t randint(uint64_t stream, uint64_t index, int64_t n) const;

  // --- Tensor fills (host-side initialisation; not device kernels). A
  // tensor without real backing (kModelOnly) is left untouched. ---
  void fill_uniform(const Tensor& t, uint64_t stream, float lo, float hi) const;
  void fill_normal(const Tensor& t, uint64_t stream, float mean, float stddev) const;
  void fill_randint(const Tensor& t, uint64_t stream, int64_t lo, int64_t hi) const;

 private:
  // splitmix64 finaliser: good avalanche, cheap, stateless.
  static uint64_t mix(uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t seed_;
};

}  // namespace ls2
