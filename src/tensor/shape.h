// Tensor shape: dimension sizes stored inline (no heap allocation).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace ls2 {

/// Dimension sizes of a (contiguous, row-major) tensor. Rank 0 denotes a
/// scalar with one element. The dims live inline, so constructing, copying
/// or reshaping a Shape never allocates; a rank above kMaxRank is a checked
/// error.
class Shape {
 public:
  /// Largest rank the library builds: [batch, heads, len, head_dim].
  static constexpr int kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) { assign(dims.begin(), dims.size()); }
  explicit Shape(const std::vector<int64_t>& dims) { assign(dims.data(), dims.size()); }

  int rank() const { return rank_; }
  int64_t dim(int i) const;
  int64_t operator[](int i) const { return dim(i); }
  /// Replace one dimension in place (checked like the constructor).
  void set_dim(int i, int64_t value);

  /// Total number of elements (product of dims; 1 for rank 0).
  int64_t numel() const;

  /// Flatten all but the last dimension: {a,b,c} -> {a*b, c}. Rows/columns
  /// view used by every reduction kernel (LayerNorm, Softmax, criterion).
  Shape flatten_2d() const;

  std::span<const int64_t> dims() const {
    return {dims_.data(), static_cast<size_t>(rank_)};
  }
  bool operator==(const Shape& o) const;
  bool operator!=(const Shape& o) const { return !(*this == o); }

  std::string str() const;

 private:
  void assign(const int64_t* dims, size_t rank);
  void validate() const;

  std::array<int64_t, kMaxRank> dims_{};
  int rank_ = 0;
};

}  // namespace ls2
