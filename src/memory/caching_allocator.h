// PyTorch/Fairseq-style caching allocator (the baseline memory strategy).
//
// Requests are rounded up to size buckets. A freed block goes back to a free
// list instead of cudaFree; a request is served from the free list when a
// large-enough cached block exists (cheap), otherwise by a real cudaMalloc
// (expensive). Because variable-length batches keep arriving with new high
// watermarks, physical memory grows in steps over training — exactly the
// Fairseq behaviour in Fig. 20 — and the malloc stalls depress utilisation
// (Fig. 21).
//
// Host cost (DESIGN.md §5): every block size is a bucket — a multiple of
// 512 B up to 1 MB, of 2 MB above — so the free list is one stack of
// blocks per bucket, indexed in size order, with a bitmap of the non-empty
// ones. A request scans that bitmap for the smallest cached size in
// [bucket, 2 x bucket]. Live blocks sit in a flat open-addressing table
// from pointer to size. Once the stacks and the table have grown to the
// step's working set, an allocate/free pair touches no heap.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "memory/device_allocator.h"

namespace ls2::mem {

class CachingAllocator final : public DeviceAllocator {
 public:
  explicit CachingAllocator(simgpu::Device& device, Backing backing = Backing::kMalloc)
      : DeviceAllocator(device, backing) {}
  ~CachingAllocator() override;

  void* allocate(size_t bytes) override;
  void deallocate(void* ptr, size_t bytes) override;
  const char* name() const override { return "caching"; }
  /// Never certified: a cold request (or a free-list re-bucketing) calls
  /// device malloc mid-step, which poisons any in-progress graph capture.
  bool capture_safe() const override { return false; }

  /// cudaFree everything in the cache (PyTorch's empty_cache()).
  void release_cached();

  int64_t cached_bytes() const { return cached_bytes_; }
  int64_t cache_hits() const { return hits_; }
  int64_t cache_misses() const { return misses_; }

 private:
  struct LiveSlot {
    void* ptr = nullptr;  ///< nullptr = empty slot
    size_t size = 0;
  };

  static size_t round_bucket(size_t bytes);
  /// Free the cached blocks, smallest size first, and empty the bins.
  void free_cached();
  /// Index of the smallest non-empty bin in [lo, hi], or SIZE_MAX.
  size_t first_free_bin(size_t lo, size_t hi) const;
  void live_insert(void* ptr, size_t size);
  /// Remove `ptr` from the live table and return its block size.
  size_t live_take(void* ptr);

  // bin i holds the free blocks of size bin_size(i); bin order is size order
  std::vector<std::vector<void*>> bins_;
  std::vector<uint64_t> nonempty_;  ///< bit i set <=> bins_[i] has a block
  // live block -> its size, which exceeds the request's bucket when a
  // larger cached block served it; the block goes back whole. Linear
  // probing over a power-of-two table at most half full.
  std::vector<LiveSlot> live_;
  size_t live_count_ = 0;
  int64_t cached_bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::mutex mu_;
};

}  // namespace ls2::mem
