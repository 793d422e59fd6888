// Contiguous, row-major tensor over device memory.
//
// The allocator is pluggable: the simulated GPU (src/simgpu) provides
// allocators that track bytes and charge cudaMalloc/cudaFree latency, which
// is how the paper's Fig. 20/21 memory and utilisation timelines are
// produced. Tensors can also *alias* external memory without owning it —
// that is the mechanism behind "symbolic tensor linking" (§IV-C), where
// every parameter is a view into one contiguous workspace.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "tensor/dtype.h"
#include "tensor/half.h"
#include "tensor/shape.h"

namespace ls2 {

/// Raw-memory provider. Implementations decide *where* the bytes live and
/// what the allocation costs in simulated device time.
class BufferAllocator {
 public:
  virtual ~BufferAllocator() = default;
  virtual void* allocate(size_t bytes) = 0;
  virtual void deallocate(void* ptr, size_t bytes) = 0;
  virtual const char* name() const = 0;
  /// False for timing-only backing (virtual, never-committed pages): tensor
  /// initialisation writes are skipped so paper-scale model-only sweeps
  /// don't commit host RAM. See simgpu::ExecMode::kModelOnly.
  virtual bool backs_real_memory() const { return true; }
};

/// Process-wide default allocator (plain heap, zero simulated cost). Used by
/// tests and host-side staging buffers.
BufferAllocator* heap_allocator();

/// Process-wide zero-cost allocator for host tensors nothing reads or writes
/// (model-only emulation temporaries): every request is served from the
/// start of one reserved, never-committed region, so its tensors ALIAS each
/// other and backs_real_memory() is false. A request larger than the region
/// maps a new one of at least twice the size; older regions stay mapped,
/// so earlier pointers remain valid. deallocate() does nothing.
BufferAllocator* uncommitted_allocator();

/// Shared ownership of one allocation (or a non-owning alias).
class Buffer {
 public:
  /// Owning buffer: takes `bytes` from `alloc`, returns them on destruction.
  Buffer(BufferAllocator* alloc, size_t bytes);
  /// Non-owning alias of external memory.
  Buffer(void* external, size_t bytes);
  ~Buffer();

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  void* data() const { return ptr_; }
  size_t bytes() const { return bytes_; }
  bool owning() const { return alloc_ != nullptr; }
  bool real() const { return alloc_ == nullptr || alloc_->backs_real_memory(); }

 private:
  BufferAllocator* alloc_ = nullptr;  // null => non-owning
  void* ptr_ = nullptr;
  size_t bytes_ = 0;
};

/// The tensor type used across LightSeq2. Always contiguous and row-major;
/// reshapes are free, slices are views along dim 0.
class Tensor {
 public:
  Tensor() = default;

  /// Allocate an uninitialised tensor.
  static Tensor empty(Shape shape, DType dtype, BufferAllocator* alloc = nullptr);
  /// Allocate and zero-fill.
  static Tensor zeros(Shape shape, DType dtype, BufferAllocator* alloc = nullptr);
  /// Wrap external memory without taking ownership ("symbolic link").
  static Tensor from_ptr(void* data, Shape shape, DType dtype);
  /// Copy host f32 data into a fresh tensor of the given dtype.
  static Tensor from_vector(const std::vector<float>& v, Shape shape, DType dtype,
                            BufferAllocator* alloc = nullptr);

  bool defined() const { return buf_ != nullptr; }
  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  int64_t numel() const { return shape_.numel(); }
  size_t bytes() const { return static_cast<size_t>(numel()) * dtype_size(dtype_); }

  /// Typed pointer to the first element. Checks the static type against the
  /// runtime dtype.
  template <typename T>
  T* data() const {
    check_type<T>();
    return reinterpret_cast<T*>(raw());
  }
  void* raw() const;

  /// Same storage, new shape (numel must match).
  Tensor view(Shape new_shape) const;
  /// View of rows [begin, end) along dimension 0.
  Tensor slice(int64_t begin, int64_t end) const;
  /// Reinterpreting view at a byte offset into this tensor's storage,
  /// sharing ownership (keeps the buffer alive). Used by the block-plan and
  /// workspace machinery.
  Tensor byte_view(size_t byte_offset, Shape shape, DType dtype) const;

  /// True unless the tensor lives in timing-only virtual backing. Mutating
  /// host-side initialisers below become no-ops on non-real tensors.
  bool backs_real_memory() const;

  void zero_() const;
  void fill_(float value) const;
  /// Element-count-checked copy from host f32 (converts to this dtype).
  void copy_from(const std::vector<float>& v) const;
  /// Read back as f32 (converting from f16 where needed).
  std::vector<float> to_vector() const;
  /// Raw byte copy from another tensor of identical dtype/numel.
  void copy_(const Tensor& src) const;

  /// Scalar accessors used in tests (f32/f16 only).
  float item(int64_t index = 0) const;

 private:
  template <typename T>
  void check_type() const {
    if constexpr (std::is_same_v<T, float>) {
      LS2_CHECK(dtype_ == DType::kF32) << "tensor is " << dtype_name(dtype_);
    } else if constexpr (std::is_same_v<T, Half>) {
      LS2_CHECK(dtype_ == DType::kF16) << "tensor is " << dtype_name(dtype_);
    } else if constexpr (std::is_same_v<T, int32_t>) {
      LS2_CHECK(dtype_ == DType::kI32) << "tensor is " << dtype_name(dtype_);
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      LS2_CHECK(dtype_ == DType::kU8) << "tensor is " << dtype_name(dtype_);
    } else {
      static_assert(sizeof(T) == 0, "unsupported element type");
    }
  }

  std::shared_ptr<Buffer> buf_;
  size_t byte_offset_ = 0;
  Shape shape_;
  DType dtype_ = DType::kF32;
};

}  // namespace ls2
