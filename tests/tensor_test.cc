#include "tensor/tensor.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "layers/params.h"
#include "models/checkpoint.h"

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

TEST(ShapeTest, InlineCapacityIsChecked) {
  const Shape full{1, 2, 3, 4};
  EXPECT_EQ(full.rank(), Shape::kMaxRank);
  EXPECT_EQ(full.numel(), 24);
  EXPECT_THROW((Shape{1, 2, 3, 4, 5}), Error);
  EXPECT_THROW(Shape(std::vector<int64_t>(Shape::kMaxRank + 1, 1)), Error);
  try {
    (void)Shape{1, 2, 3, 4, 5};
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 5 exceeds the inline Shape capacity 4"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShapeTest, EqualityComparesRankAndDims) {
  EXPECT_EQ((Shape{2, 3}), Shape(std::vector<int64_t>{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{2, 3, 1}));
  EXPECT_NE((Shape{2, 3, 1}), (Shape{2, 3}));
  EXPECT_NE((Shape{6}), (Shape{1, 6}));
  EXPECT_NE(Shape{}, (Shape{1}));
  EXPECT_EQ(Shape{}, Shape(std::vector<int64_t>{}));
  // Unused inline slots never take part: a shape shrunk by a slice equals
  // one built at that size.
  Shape s{4, 3};
  s.set_dim(0, 2);
  EXPECT_EQ(s, (Shape{2, 3}));
}

TEST(ShapeTest, RankZeroIsOneElement) {
  const Shape scalar;
  EXPECT_EQ(scalar.rank(), 0);
  EXPECT_EQ(scalar.numel(), 1);
  EXPECT_TRUE(scalar.dims().empty());
  EXPECT_EQ(scalar.str(), "[]");
  EXPECT_THROW(scalar.flatten_2d(), Error);
}

TEST(ShapeTest, NegativeDimensionMessage) {
  try {
    (void)Shape{2, -1};
    FAIL() << "negative dimension accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(": (d) >= (0) — (-1 vs 0) negative dimension in [2,-1]"),
              std::string::npos)
        << what;
  }
  Shape s{2, 3};
  EXPECT_THROW(s.set_dim(1, -4), Error);
  EXPECT_THROW(s.set_dim(2, 1), Error);
}

TEST(ShapeTest, CheckpointRoundTripKeepsEveryRank) {
  const std::string path = "/tmp/ls2_shape_ckpt_test.bin";
  const std::vector<Shape> shapes = {Shape{5}, Shape{3, 4}, Shape{2, 3, 4},
                                     Shape{2, 1, 3, 2}};
  auto registry = [&](layers::Init init) {
    layers::ParamRegistry r;
    for (size_t i = 0; i < shapes.size(); ++i)
      r.declare("p" + std::to_string(i), shapes[i], init);
    r.materialize(DType::kF32, /*contiguous=*/true, Rng(3));
    return r;
  };
  layers::ParamRegistry a = registry(layers::Init::kNormal);
  models::save_checkpoint(a, path);
  layers::ParamRegistry b = registry(layers::Init::kZero);
  models::load_checkpoint(b, path);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b.shape({i}), shapes[static_cast<size_t>(i)]);
    EXPECT_EQ(a.value({i}).to_vector(), b.value({i}).to_vector()) << a.name({i});
  }
  // Same element count, different rank: the load must refuse it.
  layers::ParamRegistry c;
  c.declare("p0", Shape{5}, layers::Init::kZero);
  c.declare("p1", Shape{12}, layers::Init::kZero);
  c.declare("p2", Shape{2, 3, 4}, layers::Init::kZero);
  c.declare("p3", Shape{2, 1, 3, 2}, layers::Init::kZero);
  c.materialize(DType::kF32, true, Rng(3));
  EXPECT_THROW(models::load_checkpoint(c, path), Error);
  std::remove(path.c_str());
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
  // Higher rank: only dim 0 changes, the row stride covers the rest.
  Tensor u = Tensor::zeros(Shape{3, 2, 2}, DType::kF32);
  Tensor v = u.slice(2, 3);
  EXPECT_EQ(v.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(v.data<float>(), u.data<float>() + 8);
  EXPECT_EQ(u.slice(1, 1).numel(), 0);
  EXPECT_THROW(u.slice(2, 4), Error);
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
