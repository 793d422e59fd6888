#include "tensor/tensor.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>

namespace ls2 {

namespace {
class HeapAllocator final : public BufferAllocator {
 public:
  void* allocate(size_t bytes) override {
    if (bytes == 0) return nullptr;
    void* p = std::malloc(bytes);
    LS2_CHECK(p != nullptr) << "heap allocation of " << bytes << " bytes failed";
    return p;
  }
  void deallocate(void* ptr, size_t) override { std::free(ptr); }
  const char* name() const override { return "heap"; }
};

class UncommittedAllocator final : public BufferAllocator {
 public:
  void* allocate(size_t bytes) override {
    if (bytes == 0) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    if (bytes > size_) {
      // The old region stays mapped: live tensors may still point into it.
      const size_t size = std::max(bytes, 2 * size_);
      void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      LS2_CHECK(p != MAP_FAILED) << "uncommitted region mmap failed (" << size << " B)";
      base_ = p;
      size_ = size;
    }
    return base_;
  }
  void deallocate(void*, size_t) override {}
  const char* name() const override { return "uncommitted"; }
  bool backs_real_memory() const override { return false; }

 private:
  std::mutex mu_;
  void* base_ = nullptr;  // current region; every request starts here
  size_t size_ = 0;
};
}  // namespace

BufferAllocator* heap_allocator() {
  static HeapAllocator alloc;
  return &alloc;
}

BufferAllocator* uncommitted_allocator() {
  // Never destroyed: buffers held by other statics may call deallocate()
  // during exit. The regions are address space only and go with the process.
  static auto* alloc = new UncommittedAllocator;
  return alloc;
}

Buffer::Buffer(BufferAllocator* alloc, size_t bytes)
    : alloc_(alloc), ptr_(alloc->allocate(bytes)), bytes_(bytes) {}

Buffer::Buffer(void* external, size_t bytes) : ptr_(external), bytes_(bytes) {}

Buffer::~Buffer() {
  if (alloc_ != nullptr && ptr_ != nullptr) alloc_->deallocate(ptr_, bytes_);
}

Tensor Tensor::empty(Shape shape, DType dtype, BufferAllocator* alloc) {
  if (alloc == nullptr) alloc = heap_allocator();
  Tensor t;
  t.shape_ = std::move(shape);
  t.dtype_ = dtype;
  t.buf_ = std::make_shared<Buffer>(alloc, static_cast<size_t>(t.numel()) * dtype_size(dtype));
  return t;
}

Tensor Tensor::zeros(Shape shape, DType dtype, BufferAllocator* alloc) {
  Tensor t = empty(std::move(shape), dtype, alloc);
  t.zero_();
  return t;
}

Tensor Tensor::from_ptr(void* data, Shape shape, DType dtype) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.dtype_ = dtype;
  t.buf_ = std::make_shared<Buffer>(data, static_cast<size_t>(t.numel()) * dtype_size(dtype));
  return t;
}

Tensor Tensor::from_vector(const std::vector<float>& v, Shape shape, DType dtype,
                           BufferAllocator* alloc) {
  Tensor t = empty(std::move(shape), dtype, alloc);
  t.copy_from(v);
  return t;
}

void* Tensor::raw() const {
  LS2_CHECK(defined()) << "undefined tensor";
  return static_cast<char*>(buf_->data()) + byte_offset_;
}

Tensor Tensor::view(Shape new_shape) const {
  LS2_CHECK_EQ(new_shape.numel(), numel()) << "view " << shape_.str() << " -> " << new_shape.str();
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::byte_view(size_t byte_offset, Shape shape, DType dtype) const {
  LS2_CHECK(defined());
  Tensor t;
  t.shape_ = std::move(shape);
  t.dtype_ = dtype;
  LS2_CHECK_LE(byte_offset + t.bytes(), bytes()) << "byte_view out of range";
  t.buf_ = buf_;
  t.byte_offset_ = byte_offset_ + byte_offset;
  return t;
}

Tensor Tensor::slice(int64_t begin, int64_t end) const {
  LS2_CHECK_GE(shape_.rank(), 1);
  LS2_CHECK(begin >= 0 && begin <= end && end <= shape_.dim(0))
      << "slice [" << begin << "," << end << ") of " << shape_.str();
  int64_t row_elems = 1;
  for (int i = 1; i < shape_.rank(); ++i) row_elems *= shape_[i];
  Tensor t = *this;
  t.shape_.set_dim(0, end - begin);
  t.byte_offset_ = byte_offset_ + static_cast<size_t>(begin * row_elems) * dtype_size(dtype_);
  return t;
}

bool Tensor::backs_real_memory() const { return !defined() || buf_->real(); }

void Tensor::zero_() const {
  if (!backs_real_memory()) return;
  if (numel() > 0) std::memset(raw(), 0, bytes());
}

void Tensor::fill_(float value) const {
  if (!backs_real_memory()) return;
  const int64_t n = numel();
  switch (dtype_) {
    case DType::kF32: {
      float* p = data<float>();
      for (int64_t i = 0; i < n; ++i) p[i] = value;
      break;
    }
    case DType::kF16: {
      const Half h(value);
      Half* p = data<Half>();
      for (int64_t i = 0; i < n; ++i) p[i] = h;
      break;
    }
    case DType::kI32: {
      int32_t* p = data<int32_t>();
      for (int64_t i = 0; i < n; ++i) p[i] = static_cast<int32_t>(value);
      break;
    }
    case DType::kU8: {
      uint8_t* p = data<uint8_t>();
      for (int64_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(value);
      break;
    }
  }
}

void Tensor::copy_from(const std::vector<float>& v) const {
  LS2_CHECK_EQ(static_cast<int64_t>(v.size()), numel());
  if (!backs_real_memory()) return;
  const int64_t n = numel();
  switch (dtype_) {
    case DType::kF32:
      std::memcpy(raw(), v.data(), static_cast<size_t>(n) * sizeof(float));
      break;
    case DType::kF16:
      convert_float_to_half(v.data(), data<Half>(), n);
      break;
    case DType::kI32: {
      int32_t* p = data<int32_t>();
      for (int64_t i = 0; i < n; ++i) p[i] = static_cast<int32_t>(v[static_cast<size_t>(i)]);
      break;
    }
    case DType::kU8: {
      uint8_t* p = data<uint8_t>();
      for (int64_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(v[static_cast<size_t>(i)]);
      break;
    }
  }
}

std::vector<float> Tensor::to_vector() const {
  const int64_t n = numel();
  std::vector<float> out(static_cast<size_t>(n));
  switch (dtype_) {
    case DType::kF32:
      std::memcpy(out.data(), raw(), static_cast<size_t>(n) * sizeof(float));
      break;
    case DType::kF16:
      convert_half_to_float(data<Half>(), out.data(), n);
      break;
    case DType::kI32: {
      const int32_t* p = data<int32_t>();
      for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = static_cast<float>(p[i]);
      break;
    }
    case DType::kU8: {
      const uint8_t* p = data<uint8_t>();
      for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = static_cast<float>(p[i]);
      break;
    }
  }
  return out;
}

void Tensor::copy_(const Tensor& src) const {
  LS2_CHECK_EQ(numel(), src.numel());
  LS2_CHECK(dtype_ == src.dtype()) << "copy_ dtype mismatch";
  if (!backs_real_memory() || !src.backs_real_memory()) return;
  std::memcpy(raw(), src.raw(), bytes());
}

float Tensor::item(int64_t index) const {
  LS2_CHECK(index >= 0 && index < numel());
  switch (dtype_) {
    case DType::kF32: return data<float>()[index];
    case DType::kF16: return static_cast<float>(data<Half>()[index]);
    case DType::kI32: return static_cast<float>(data<int32_t>()[index]);
    case DType::kU8: return static_cast<float>(data<uint8_t>()[index]);
  }
  return 0.0f;
}

}  // namespace ls2
