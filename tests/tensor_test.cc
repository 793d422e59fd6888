#include "tensor/tensor.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <vector>

#include "common/check.h"

namespace ls2 {
namespace {

TEST(ShapeTest, Basics) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.str(), "[2,3,4]");
  EXPECT_EQ(s.flatten_2d(), (Shape{6, 4}));
}

TEST(ShapeTest, ScalarAndVector) {
  EXPECT_EQ(Shape{}.numel(), 1);
  EXPECT_EQ((Shape{5}).flatten_2d(), (Shape{1, 5}));
}

TEST(ShapeTest, OutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
  EXPECT_THROW(s.dim(-3), Error);
}

TEST(TensorTest, EmptyZerosFill) {
  Tensor t = Tensor::zeros(Shape{4, 5}, DType::kF32);
  EXPECT_EQ(t.numel(), 20);
  EXPECT_EQ(t.bytes(), 80u);
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(t.data<float>()[i], 0.0f);
  t.fill_(2.5f);
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(t.data<float>()[i], 2.5f);
}

TEST(TensorTest, DtypeCheckedAccess) {
  Tensor t = Tensor::zeros(Shape{3}, DType::kF32);
  EXPECT_NO_THROW(t.data<float>());
  EXPECT_THROW(t.data<Half>(), Error);
  EXPECT_THROW(t.data<int32_t>(), Error);
}

TEST(TensorTest, ViewSharesStorage) {
  Tensor t = Tensor::zeros(Shape{2, 6}, DType::kF32);
  Tensor v = t.view(Shape{3, 4});
  v.data<float>()[7] = 9.0f;
  EXPECT_EQ(t.data<float>()[7], 9.0f);
  EXPECT_THROW(t.view(Shape{5}), Error);
}

TEST(TensorTest, SliceIsView) {
  Tensor t = Tensor::zeros(Shape{4, 3}, DType::kF32);
  for (int64_t i = 0; i < 12; ++i) t.data<float>()[i] = static_cast<float>(i);
  Tensor s = t.slice(1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 3}));
  EXPECT_EQ(s.data<float>()[0], 3.0f);
  s.data<float>()[0] = -1.0f;
  EXPECT_EQ(t.data<float>()[3], -1.0f);
}

TEST(TensorTest, FromPtrAliases) {
  std::vector<float> host(6, 1.0f);
  Tensor t = Tensor::from_ptr(host.data(), Shape{2, 3}, DType::kF32);
  t.fill_(4.0f);
  EXPECT_EQ(host[5], 4.0f);
}

TEST(TensorTest, F16RoundTripThroughVectors) {
  Tensor t = Tensor::empty(Shape{3}, DType::kF16);
  t.copy_from({1.0f, 0.5f, -2.0f});
  const std::vector<float> back = t.to_vector();
  EXPECT_EQ(back, (std::vector<float>{1.0f, 0.5f, -2.0f}));
}

TEST(TensorTest, I32AndU8Conversions) {
  Tensor ti = Tensor::empty(Shape{3}, DType::kI32);
  ti.copy_from({1.0f, 2.0f, 300.0f});
  EXPECT_EQ(ti.data<int32_t>()[2], 300);
  Tensor tu = Tensor::empty(Shape{2}, DType::kU8);
  tu.copy_from({0.0f, 255.0f});
  EXPECT_EQ(tu.data<uint8_t>()[1], 255);
}

TEST(TensorTest, ItemAccessor) {
  Tensor t = Tensor::from_vector({3.0f, 7.0f}, Shape{2}, DType::kF32);
  EXPECT_EQ(t.item(1), 7.0f);
  EXPECT_THROW(t.item(2), Error);
}

TEST(TensorTest, CopyRequiresMatchingDtype) {
  Tensor a = Tensor::zeros(Shape{4}, DType::kF32);
  Tensor b = Tensor::zeros(Shape{4}, DType::kF16);
  EXPECT_THROW(a.copy_(b), Error);
  Tensor c = Tensor::from_vector({1, 2, 3, 4}, Shape{4}, DType::kF32);
  a.copy_(c);
  EXPECT_EQ(a.to_vector(), c.to_vector());
}

// True when every page of [p, p + bytes) is mapped (mincore fails with
// ENOMEM on an unmapped range; it never commits a page).
bool mapped(const void* p, size_t bytes) {
  const auto page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(p) / page * page;
  const uintptr_t end = reinterpret_cast<uintptr_t>(p) + bytes;
  std::vector<unsigned char> resident((end - begin + page - 1) / page);
  return mincore(reinterpret_cast<void*>(begin), end - begin, resident.data()) == 0;
}

TEST(UncommittedAllocatorTest, TensorsAliasAndAreNotReal) {
  BufferAllocator* alloc = uncommitted_allocator();
  EXPECT_FALSE(alloc->backs_real_memory());
  Tensor a = Tensor::empty({64, 64}, DType::kF32, alloc);
  Tensor b = Tensor::empty({16}, DType::kF16, alloc);
  EXPECT_FALSE(a.backs_real_memory());
  EXPECT_FALSE(b.backs_real_memory());
  EXPECT_EQ(a.raw(), b.raw());  // every request starts at the region base
  // Initialisers skip non-real tensors.
  a.fill_(1.0f);
  a.zero_();
  a.copy_(a);
}

TEST(UncommittedAllocatorTest, GrowingKeepsEarlierRegionsMapped) {
  BufferAllocator* alloc = uncommitted_allocator();
  Tensor first = Tensor::empty({1 << 20}, DType::kU8, alloc);
  // Double the request until it outgrows the current region and lands in a
  // new one.
  size_t bytes = first.bytes();
  Tensor grown;
  do {
    bytes *= 2;
    grown = Tensor::empty({static_cast<int64_t>(bytes)}, DType::kU8, alloc);
  } while (grown.raw() == first.raw());
  EXPECT_TRUE(mapped(first.raw(), first.bytes()));
  EXPECT_TRUE(mapped(grown.raw(), grown.bytes()));
  // Later requests are served from the new region; freeing returns nothing.
  const void* base = grown.raw();
  first = Tensor();
  grown = Tensor();
  EXPECT_EQ(Tensor::empty({8}, DType::kF32, alloc).raw(), base);
}

}  // namespace
}  // namespace ls2
