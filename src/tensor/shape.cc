#include "tensor/shape.h"

#include <algorithm>
#include <sstream>

namespace ls2 {

void Shape::assign(const int64_t* dims, size_t rank) {
  LS2_CHECK(rank <= static_cast<size_t>(kMaxRank))
      << "rank " << rank << " exceeds the inline Shape capacity " << kMaxRank;
  std::copy(dims, dims + rank, dims_.begin());
  rank_ = static_cast<int>(rank);
  validate();
}

int64_t Shape::dim(int i) const {
  if (i < 0) i += rank();
  LS2_CHECK(i >= 0 && i < rank()) << "dim index " << i << " out of range for " << str();
  return dims_[static_cast<size_t>(i)];
}

void Shape::set_dim(int i, int64_t value) {
  LS2_CHECK(i >= 0 && i < rank()) << "dim index " << i << " out of range for " << str();
  dims_[static_cast<size_t>(i)] = value;
  validate();
}

int64_t Shape::numel() const {
  int64_t n = 1;
  for (int64_t d : dims()) n *= d;
  return n;
}

Shape Shape::flatten_2d() const {
  LS2_CHECK_GE(rank(), 1);
  if (rank() == 1) return Shape{1, dims_[0]};
  int64_t rows = 1;
  for (int i = 0; i + 1 < rank(); ++i) rows *= dims_[static_cast<size_t>(i)];
  return Shape{rows, dims_[static_cast<size_t>(rank() - 1)]};
}

bool Shape::operator==(const Shape& o) const {
  const auto a = dims();
  const auto b = o.dims();
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::string Shape::str() const {
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < rank(); ++i) {
    if (i) os << ",";
    os << dims_[static_cast<size_t>(i)];
  }
  os << "]";
  return os.str();
}

void Shape::validate() const {
  for (int64_t d : dims()) LS2_CHECK_GE(d, 0) << "negative dimension in " << str();
}

}  // namespace ls2
