#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "memory/arena_allocator.h"
#include "memory/caching_allocator.h"
#include "memory/workspace.h"
#include "simgpu/device.h"
#include "simgpu/profile.h"

namespace ls2::mem {
namespace {

using simgpu::Device;
using simgpu::ExecMode;

class CachingAllocatorTest : public ::testing::Test {
 protected:
  Device dev{simgpu::generic(), ExecMode::kExecute};
};

TEST_F(CachingAllocatorTest, FirstAllocationIsAMiss) {
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(1000);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(alloc.cache_misses(), 1);
  EXPECT_EQ(alloc.cache_hits(), 0);
  EXPECT_EQ(alloc.bytes_in_use(), 1024);  // rounded to 512B granule
  alloc.deallocate(p, 1000);
  EXPECT_EQ(alloc.bytes_in_use(), 0);
  EXPECT_EQ(alloc.cached_bytes(), 1024);
}

TEST_F(CachingAllocatorTest, ReuseIsAHitAndCheaper) {
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(1000);
  alloc.deallocate(p, 1000);
  const double clock_before = dev.clock_us();
  void* q = alloc.allocate(900);  // same bucket -> cache hit
  EXPECT_EQ(q, p);
  EXPECT_EQ(alloc.cache_hits(), 1);
  const double hit_cost = dev.clock_us() - clock_before;
  EXPECT_NEAR(hit_cost, dev.profile().cached_alloc_us, 1e-9);
  alloc.deallocate(q, 900);
}

TEST_F(CachingAllocatorTest, GrowthWhenLargerRequestsArrive) {
  // Variable-length batches: each longer sequence forces a new high
  // watermark even though shorter blocks sit in the cache (Fig. 20).
  CachingAllocator alloc(dev);
  void* a = alloc.allocate(4 << 20);
  alloc.deallocate(a, 4 << 20);
  void* b = alloc.allocate(16 << 20);  // cached 4MB too small
  EXPECT_EQ(alloc.cache_misses(), 2);
  alloc.deallocate(b, 16 << 20);
  EXPECT_EQ(alloc.peak_bytes(), 16 << 20);
  EXPECT_EQ(alloc.cached_bytes(), (4 << 20) + (16 << 20));
}

TEST_F(CachingAllocatorTest, NoWastefulReuse) {
  CachingAllocator alloc(dev);
  void* big = alloc.allocate(32 << 20);
  alloc.deallocate(big, 32 << 20);
  // A tiny request must not burn the 32MB block (waste cap 2x).
  void* small = alloc.allocate(1024);
  EXPECT_NE(small, big);
  alloc.deallocate(small, 1024);
}

TEST_F(CachingAllocatorTest, LargerCachedBlockGoesBackWhole) {
  // A 2 MB - 4 KB request rounds to a 2 MB bucket and is served from a
  // cached 4 MB block (within the 2x waste cap): the whole block is in use,
  // and freeing it must return all 4 MB and re-cache the block at 4 MB.
  CachingAllocator alloc(dev);
  void* big = alloc.allocate(4 << 20);
  alloc.deallocate(big, 4 << 20);
  const size_t request = (2 << 20) - 4096;
  void* p = alloc.allocate(request);
  EXPECT_EQ(p, big);
  EXPECT_EQ(alloc.bytes_in_use(), 4 << 20);
  alloc.deallocate(p, request);
  EXPECT_EQ(alloc.bytes_in_use(), 0);
  EXPECT_EQ(alloc.cached_bytes(), 4 << 20);
  // Re-cached at its real size: a 4 MB request is a hit on the same block.
  void* again = alloc.allocate(4 << 20);
  EXPECT_EQ(again, big);
  EXPECT_EQ(alloc.cache_hits(), 2);
  EXPECT_EQ(alloc.device_malloc_count(), 1);
  alloc.deallocate(again, 4 << 20);
}

TEST_F(CachingAllocatorTest, ReleaseCachedFreesDeviceMemory) {
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(1 << 20);
  alloc.deallocate(p, 1 << 20);
  const int64_t frees_before = alloc.device_free_count();
  alloc.release_cached();
  EXPECT_GT(alloc.device_free_count(), frees_before);
  EXPECT_EQ(alloc.cached_bytes(), 0);
}

TEST_F(CachingAllocatorTest, SimulatedOom) {
  CachingAllocator alloc(dev);  // generic profile: 16 GB
  EXPECT_THROW(alloc.allocate(size_t{20} << 30), OutOfMemory);
}

TEST_F(CachingAllocatorTest, UnknownOrDoubleFreedBlockThrows) {
  CachingAllocator alloc(dev);
  int never_allocated = 0;
  EXPECT_THROW(alloc.deallocate(&never_allocated, 4), Error) << "empty live table";
  void* small = alloc.allocate(1000);
  void* large = alloc.allocate(3 << 20);
  EXPECT_THROW(alloc.deallocate(&never_allocated, 4), Error) << "never allocated";
  alloc.deallocate(small, 1000);
  EXPECT_THROW(alloc.deallocate(small, 1000), Error) << "double free of a small block";
  EXPECT_EQ(alloc.bytes_in_use(), 4 << 20) << "a rejected free changes nothing";
  alloc.deallocate(large, 3 << 20);
  EXPECT_THROW(alloc.deallocate(large, 3 << 20), Error) << "double free of a large block";
  EXPECT_EQ(alloc.bytes_in_use(), 0);
  EXPECT_EQ(alloc.cached_bytes(), (4 << 20) + 1024);
}

/// The caching allocator as first written: a multimap free list and an
/// unordered_map live table. The property test below holds the binned
/// allocator to its decisions and accounting.
class ReferenceCachingAllocator final : public DeviceAllocator {
 public:
  using DeviceAllocator::DeviceAllocator;
  ~ReferenceCachingAllocator() override { release_cached(); }

  void* allocate(size_t bytes) override {
    const size_t bucket = round_bucket(bytes);
    auto it = free_blocks_.lower_bound(bucket);
    if (it != free_blocks_.end() && it->first <= bucket * 2) {
      void* ptr = it->second;
      const size_t got = it->first;
      free_blocks_.erase(it);
      cached_bytes_ -= static_cast<int64_t>(got);
      ++hits_;
      device_.charge_alloc(/*cache_hit=*/true);
      note_usage(static_cast<int64_t>(got));
      live_blocks_.emplace(ptr, got);
      return ptr;
    }
    ++misses_;
    void* ptr = device_malloc(bucket);
    note_usage(static_cast<int64_t>(bucket));
    live_blocks_.emplace(ptr, bucket);
    return ptr;
  }
  void deallocate(void* ptr, size_t) override {
    auto it = live_blocks_.find(ptr);
    LS2_CHECK(it != live_blocks_.end()) << "reference: unknown block " << ptr;
    const size_t size = it->second;
    live_blocks_.erase(it);
    free_blocks_.emplace(size, ptr);
    cached_bytes_ += static_cast<int64_t>(size);
    note_usage(-static_cast<int64_t>(size));
  }
  const char* name() const override { return "reference-caching"; }

  void release_cached() {
    for (auto& [size, ptr] : free_blocks_) device_free(ptr, size);
    free_blocks_.clear();
    cached_bytes_ = 0;
  }
  int64_t cached_bytes() const { return cached_bytes_; }
  int64_t cache_hits() const { return hits_; }
  int64_t cache_misses() const { return misses_; }

 private:
  static size_t round_bucket(size_t bytes) {
    constexpr size_t kSmallGranule = 512;
    constexpr size_t kLargeGranule = 2u << 20;
    if (bytes == 0) return kSmallGranule;
    if (bytes < (1u << 20)) return (bytes + kSmallGranule - 1) / kSmallGranule * kSmallGranule;
    return (bytes + kLargeGranule - 1) / kLargeGranule * kLargeGranule;
  }

  std::multimap<size_t, void*> free_blocks_;
  std::unordered_map<void*, size_t> live_blocks_;
  int64_t cached_bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

TEST_F(CachingAllocatorTest, RandomSequencesMatchTheReferenceMultimap) {
  constexpr size_t kMB = size_t{1} << 20;
  int64_t small_from_large = 0;  // small requests served by the 2 MB bin
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    std::mt19937_64 rng(seed);
    // Own devices, so each side's clock and stall time are its own.
    Device dev_a(simgpu::generic(), ExecMode::kModelOnly);
    Device dev_b(simgpu::generic(), ExecMode::kModelOnly);
    CachingAllocator alloc(dev_a, DeviceAllocator::Backing::kVirtual);
    ReferenceCachingAllocator ref(dev_b, DeviceAllocator::Backing::kVirtual);

    struct Live {
      void* ptr;
      void* ref_ptr;
      size_t bytes;
    };
    std::vector<Live> live;
    for (int op = 0; op < 3000; ++op) {
      const uint64_t dice = rng() % 1000;
      if (dice < 5) {
        alloc.release_cached();
        ref.release_cached();
      } else if (live.empty() || dice < 550) {
        // Small sizes, exact bucket multiples, sizes just below and above
        // 1 MB (whose 2x cap reaches the 2 MB bin), and large sizes.
        size_t bytes = 0;
        switch (rng() % 5) {
          case 0: bytes = rng() % (64 << 10); break;
          case 1: bytes = 512 * (1 + rng() % 2048); break;
          case 2: bytes = kMB - 4096 + rng() % 8192; break;
          case 3: bytes = kMB + rng() % (24 * kMB); break;
          default: bytes = 2 * kMB * (1 + rng() % 12); break;
        }
        const int64_t misses_before = alloc.cache_misses();
        const int64_t in_use_before = alloc.bytes_in_use();
        live.push_back({alloc.allocate(bytes), ref.allocate(bytes), bytes});
        if (bytes < kMB && alloc.cache_misses() == misses_before &&
            alloc.bytes_in_use() - in_use_before == static_cast<int64_t>(2 * kMB))
          ++small_from_large;
      } else {
        const size_t i = rng() % live.size();
        const Live l = live[i];
        live[i] = live.back();
        live.pop_back();
        alloc.deallocate(l.ptr, l.bytes);
        ref.deallocate(l.ref_ptr, l.bytes);
      }
      ASSERT_EQ(alloc.cache_hits(), ref.cache_hits()) << "seed " << seed << " op " << op;
      ASSERT_EQ(alloc.cache_misses(), ref.cache_misses()) << "seed " << seed << " op " << op;
      ASSERT_EQ(alloc.bytes_in_use(), ref.bytes_in_use()) << "seed " << seed << " op " << op;
      ASSERT_EQ(alloc.cached_bytes(), ref.cached_bytes()) << "seed " << seed << " op " << op;
      ASSERT_EQ(alloc.peak_bytes(), ref.peak_bytes()) << "seed " << seed << " op " << op;
      ASSERT_EQ(alloc.device_malloc_count(), ref.device_malloc_count())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(alloc.device_free_count(), ref.device_free_count())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(dev_a.stats().alloc_stall_us, dev_b.stats().alloc_stall_us)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(dev_a.stats().alloc_events, dev_b.stats().alloc_events)
          << "seed " << seed << " op " << op;
    }
    EXPECT_GT(alloc.cache_hits(), 500) << "seed " << seed;
    EXPECT_GT(alloc.cache_misses(), 50) << "seed " << seed;
    for (const Live& l : live) {
      alloc.deallocate(l.ptr, l.bytes);
      ref.deallocate(l.ref_ptr, l.bytes);
    }
    EXPECT_EQ(alloc.bytes_in_use(), 0);
    EXPECT_EQ(alloc.cached_bytes(), ref.cached_bytes());
  }
  EXPECT_GT(small_from_large, 0) << "no sub-1 MB request crossed into the 2 MB bin";
}

class ArenaAllocatorTest : public ::testing::Test {
 protected:
  Device dev{simgpu::generic(), ExecMode::kExecute};
};

TEST_F(ArenaAllocatorTest, SingleUpFrontDeviceMalloc) {
  ArenaAllocator arena(dev, 1 << 20);
  EXPECT_EQ(arena.device_malloc_count(), 1);
  void* a = arena.allocate(1000);
  void* b = arena.allocate(1000);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.device_malloc_count(), 1);  // still just the reservation
  arena.deallocate(a, 1000);
  arena.deallocate(b, 1000);
}

TEST_F(ArenaAllocatorTest, InUseIsFlatAtCapacity) {
  ArenaAllocator arena(dev, 1 << 20);
  EXPECT_EQ(arena.bytes_in_use(), 1 << 20);
  void* a = arena.allocate(5000);
  EXPECT_EQ(arena.bytes_in_use(), 1 << 20);  // no change during training
  arena.deallocate(a, 5000);
}

TEST_F(ArenaAllocatorTest, ResetRewindsBumpPointer) {
  ArenaAllocator arena(dev, 4096);
  void* a = arena.allocate(2048);
  arena.deallocate(a, 2048);
  arena.reset();
  void* b = arena.allocate(2048);
  EXPECT_EQ(a, b);  // same bytes reused across steps
  arena.deallocate(b, 2048);
}

TEST_F(ArenaAllocatorTest, ResetWithLiveTensorsThrows) {
  ArenaAllocator arena(dev, 4096);
  void* a = arena.allocate(100);
  EXPECT_THROW(arena.reset(), Error);
  arena.deallocate(a, 100);
  EXPECT_NO_THROW(arena.reset());
}

TEST_F(ArenaAllocatorTest, ExhaustionThrowsOom) {
  ArenaAllocator arena(dev, 4096);
  (void)arena.allocate(4096);
  EXPECT_THROW(arena.allocate(1), OutOfMemory);
}

TEST_F(ArenaAllocatorTest, HighWaterTracksTightness) {
  ArenaAllocator arena(dev, 1 << 20);
  void* a = arena.allocate(1000);
  arena.deallocate(a, 1000);
  arena.reset();
  void* b = arena.allocate(3000);
  arena.deallocate(b, 3000);
  EXPECT_GE(arena.high_water(), 3000u);
  EXPECT_LT(arena.high_water(), 4096u);
}

/// Reference first-fit placement over an offset-keyed std::map: what the
/// arena's flat free list must reproduce offset for offset.
class ReferenceArena {
 public:
  explicit ReferenceArena(size_t capacity) { free_[0] = capacity; }

  std::optional<size_t> allocate(size_t want) {
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second < want) continue;
      const size_t offset = it->first, remaining = it->second - want;
      free_.erase(it);
      if (remaining > 0) free_[offset + want] = remaining;
      used_ += want;
      high_water_ = std::max(high_water_, used_);
      return offset;
    }
    return std::nullopt;
  }

  void deallocate(size_t offset, size_t want) {
    used_ -= want;
    auto it = free_.emplace(offset, want).first;
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == offset) {
        prev->second += it->second;
        free_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_.erase(next);
    }
  }

  size_t high_water() const { return high_water_; }
  size_t free_blocks() const { return free_.size(); }

 private:
  std::map<size_t, size_t> free_;
  size_t used_ = 0;
  size_t high_water_ = 0;
};

TEST_F(ArenaAllocatorTest, RandomSequencesMatchTheReferenceFirstFit) {
  constexpr size_t kCapacity = 1 << 20, kAlign = 256;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    ArenaAllocator arena(dev, kCapacity);
    ReferenceArena ref(kCapacity);
    char* const base = static_cast<char*>(arena.allocate(1));
    arena.deallocate(base, 1);
    ASSERT_EQ(ref.allocate(kAlign), 0u);
    ref.deallocate(0, kAlign);

    struct Live {
      void* ptr;
      size_t bytes;
    };
    std::vector<Live> live;
    int ooms = 0;
    for (int op = 0; op < 3000; ++op) {
      const bool alloc = live.empty() || rng() % 100 < 55;
      if (alloc) {
        // Mostly small, sometimes exact multiples of the alignment (the
        // exact-fit path), now and then large enough to run out.
        size_t bytes = 1 + rng() % 8192;
        if (rng() % 4 == 0) bytes = kAlign * (1 + rng() % 64);
        if (rng() % 50 == 0) bytes = 1 + rng() % (kCapacity / 2);
        const size_t want = (bytes + kAlign - 1) / kAlign * kAlign;
        const std::optional<size_t> expect = ref.allocate(want);
        if (!expect) {
          EXPECT_THROW(arena.allocate(bytes), OutOfMemory) << "seed " << seed << " op " << op;
          ++ooms;
          continue;
        }
        void* p = arena.allocate(bytes);
        ASSERT_EQ(static_cast<size_t>(static_cast<char*>(p) - base), *expect)
            << "seed " << seed << " op " << op;
        live.push_back({p, bytes});
      } else {
        const size_t i = rng() % live.size();
        const Live l = live[i];
        live[i] = live.back();
        live.pop_back();
        arena.deallocate(l.ptr, l.bytes);
        ref.deallocate(static_cast<size_t>(static_cast<char*>(l.ptr) - base),
                       (l.bytes + kAlign - 1) / kAlign * kAlign);
      }
      ASSERT_EQ(arena.high_water(), ref.high_water()) << "seed " << seed << " op " << op;
      ASSERT_EQ(arena.outstanding(), static_cast<int64_t>(live.size()));
    }
    EXPECT_GT(ooms, 0) << "seed " << seed << " never exercised exhaustion";
    for (const Live& l : live) {
      arena.deallocate(l.ptr, l.bytes);
      ref.deallocate(static_cast<size_t>(static_cast<char*>(l.ptr) - base),
                     (l.bytes + kAlign - 1) / kAlign * kAlign);
    }
    // Fully coalesced before reset(): one free block spanning the arena, so
    // the whole capacity is placeable at offset 0.
    EXPECT_EQ(ref.free_blocks(), 1u);
    void* all = arena.allocate(kCapacity);
    EXPECT_EQ(all, base) << "seed " << seed;
    arena.deallocate(all, kCapacity);
    EXPECT_NO_THROW(arena.reset());
  }
}

TEST_F(ArenaAllocatorTest, DoubleFreeAndForeignPointerThrow) {
  ArenaAllocator arena(dev, 4096);
  void* a = arena.allocate(256);
  void* b = arena.allocate(256);
  EXPECT_THROW(arena.deallocate(static_cast<char*>(a) + 4096, 256), Error)
      << "pointer past the arena";
  arena.deallocate(a, 256);  // b stays live, so a's block cannot coalesce away
  EXPECT_THROW(arena.deallocate(a, 256), Error) << "double free";
  (void)b;
}

TEST(WorkspaceTest, LinksAreViewsIntoOneBuffer) {
  Workspace ws;
  ws.add("w1", Shape{4, 4}, DType::kF16);
  ws.add("b1", Shape{4}, DType::kF16);
  ws.freeze();
  Tensor w1 = ws.get("w1");
  Tensor b1 = ws.get("b1");
  EXPECT_EQ(w1.shape(), (Shape{4, 4}));
  EXPECT_EQ(b1.shape(), (Shape{4}));
  // Writing through the flat view must be visible through the links.
  Tensor flat = ws.flat();
  flat.fill_(1.0f);
  EXPECT_EQ(w1.item(0), 1.0f);
  EXPECT_EQ(b1.item(3), 1.0f);
}

TEST(WorkspaceTest, FlatCoversAllParameters) {
  Workspace ws;
  ws.add("a", Shape{3}, DType::kF16);  // 6 bytes -> padded to 16
  ws.add("b", Shape{5}, DType::kF16);
  ws.freeze();
  EXPECT_EQ(ws.total_elements(), 8);
  EXPECT_EQ(ws.flat().numel(), static_cast<int64_t>(ws.total_bytes() / 2));
}

TEST(WorkspaceTest, DuplicateAndMissingNamesThrow) {
  Workspace ws;
  ws.add("p", Shape{2}, DType::kF32);
  EXPECT_THROW(ws.add("p", Shape{2}, DType::kF32), Error);
  ws.freeze();
  EXPECT_THROW(ws.get("q"), Error);
  EXPECT_TRUE(ws.contains("p"));
  EXPECT_FALSE(ws.contains("q"));
}

TEST(WorkspaceTest, AddAfterFreezeThrows) {
  Workspace ws;
  ws.add("p", Shape{2}, DType::kF32);
  ws.freeze();
  EXPECT_THROW(ws.add("q", Shape{2}, DType::kF32), Error);
}

TEST(WorkspaceTest, MixedDtypeForbidsFlat) {
  Workspace ws;
  ws.add("p", Shape{2}, DType::kF32);
  ws.add("m", Shape{2}, DType::kF16);
  ws.freeze();
  EXPECT_THROW(ws.flat(), Error);
  EXPECT_NO_THROW(ws.get("m"));
}

}  // namespace
}  // namespace ls2::mem
