#include "memory/caching_allocator.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace ls2::mem {

namespace {

// PyTorch rounds small allocations to 512B and large ones to 2MB granules.
constexpr size_t kSmallGranule = 512;
constexpr size_t kLargeGranule = 2u << 20;
constexpr size_t kSmallLimit = 1u << 20;
constexpr size_t kSmallBins = kSmallLimit / kSmallGranule;
constexpr size_t kNoBin = SIZE_MAX;
constexpr size_t kMinLiveSlots = 64;

// Bins in size order: 512 B, 1 KB, ..., 1 MB, then 2 MB, 4 MB, ...
size_t bin_of(size_t bucket) {
  return bucket <= kSmallLimit ? bucket / kSmallGranule - 1
                               : kSmallBins - 1 + bucket / kLargeGranule;
}

size_t bin_size(size_t bin) {
  return bin < kSmallBins ? (bin + 1) * kSmallGranule
                          : (bin - (kSmallBins - 1)) * kLargeGranule;
}

// The largest bin whose size is at most `bytes` (>= 512).
size_t last_bin_within(size_t bytes) {
  if (bytes < kLargeGranule) return std::min(bytes / kSmallGranule, kSmallBins) - 1;
  return kSmallBins - 1 + bytes / kLargeGranule;
}

// Fibonacci hashing: block pointers are 16 B (heap) or 4 KB (mmap)
// aligned, so take the product's high bits.
size_t home_slot(const void* ptr, size_t table_size) {
  const uint64_t h =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(ptr)) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> (64 - std::countr_zero(table_size)));
}

}  // namespace

CachingAllocator::~CachingAllocator() { free_cached(); }

size_t CachingAllocator::round_bucket(size_t bytes) {
  if (bytes == 0) return kSmallGranule;
  if (bytes < kSmallLimit) return (bytes + kSmallGranule - 1) / kSmallGranule * kSmallGranule;
  return (bytes + kLargeGranule - 1) / kLargeGranule * kLargeGranule;
}

size_t CachingAllocator::first_free_bin(size_t lo, size_t hi) const {
  const size_t nbits = nonempty_.size() * 64;
  if (lo >= nbits) return kNoBin;
  hi = std::min(hi, nbits - 1);
  for (size_t w = lo / 64; w <= hi / 64; ++w) {
    uint64_t bits = nonempty_[w];
    if (w == lo / 64) bits &= ~uint64_t{0} << (lo % 64);
    if (bits != 0) {
      const size_t bin = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      return bin <= hi ? bin : kNoBin;
    }
  }
  return kNoBin;
}

void CachingAllocator::live_insert(void* ptr, size_t size) {
  if (2 * (live_count_ + 1) > live_.size()) {
    std::vector<LiveSlot> old = std::move(live_);
    live_.assign(std::max(kMinLiveSlots, 2 * old.size()), LiveSlot{});
    live_count_ = 0;
    for (const LiveSlot& s : old)
      if (s.ptr != nullptr) live_insert(s.ptr, s.size);
  }
  const size_t mask = live_.size() - 1;
  size_t i = home_slot(ptr, live_.size());
  while (live_[i].ptr != nullptr) i = (i + 1) & mask;
  live_[i] = LiveSlot{ptr, size};
  ++live_count_;
}

size_t CachingAllocator::live_take(void* ptr) {
  LS2_CHECK(live_count_ > 0) << "caching allocator: unknown block " << ptr;
  const size_t mask = live_.size() - 1;
  size_t i = home_slot(ptr, live_.size());
  while (live_[i].ptr != ptr) {
    LS2_CHECK(live_[i].ptr != nullptr) << "caching allocator: unknown block " << ptr;
    i = (i + 1) & mask;
  }
  const size_t size = live_[i].size;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies after the hole.
  for (size_t j = (i + 1) & mask; live_[j].ptr != nullptr; j = (j + 1) & mask) {
    const size_t home = home_slot(live_[j].ptr, live_.size());
    if (((j - home) & mask) >= ((j - i) & mask)) {
      live_[i] = live_[j];
      i = j;
    }
  }
  live_[i] = LiveSlot{};
  --live_count_;
  return size;
}

void* CachingAllocator::allocate(size_t bytes) {
  const size_t bucket = round_bucket(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  // Reuse the smallest cached block if it's not wastefully large (PyTorch
  // splits; we approximate with a 2x waste cap).
  const size_t bin = first_free_bin(bin_of(bucket), last_bin_within(2 * bucket));
  if (bin != kNoBin) {
    std::vector<void*>& blocks = bins_[bin];
    void* ptr = blocks.back();
    blocks.pop_back();
    if (blocks.empty()) nonempty_[bin / 64] &= ~(uint64_t{1} << (bin % 64));
    const size_t got = bin_size(bin);
    cached_bytes_ -= static_cast<int64_t>(got);
    ++hits_;
    device_.charge_alloc(/*cache_hit=*/true);
    note_usage(static_cast<int64_t>(got));
    live_insert(ptr, got);
    return ptr;
  }
  ++misses_;
  void* ptr = device_malloc(bucket);
  note_usage(static_cast<int64_t>(bucket));
  live_insert(ptr, bucket);
  return ptr;
}

void CachingAllocator::deallocate(void* ptr, size_t) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t size = live_take(ptr);
  const size_t bin = bin_of(size);
  if (bin >= bins_.size()) bins_.resize(bin + 1);
  if (bin / 64 >= nonempty_.size()) nonempty_.resize(bin / 64 + 1, 0);
  bins_[bin].push_back(ptr);
  nonempty_[bin / 64] |= uint64_t{1} << (bin % 64);
  cached_bytes_ += static_cast<int64_t>(size);
  note_usage(-static_cast<int64_t>(size));
}

void CachingAllocator::free_cached() {
  for (size_t w = 0; w < nonempty_.size(); ++w) {
    for (uint64_t bits = nonempty_[w]; bits != 0; bits &= bits - 1) {
      const size_t bin = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      for (void* ptr : bins_[bin]) device_free(ptr, bin_size(bin));
      bins_[bin].clear();
    }
    nonempty_[w] = 0;
  }
}

void CachingAllocator::release_cached() {
  std::lock_guard<std::mutex> lock(mu_);
  free_cached();
  cached_bytes_ = 0;
}

}  // namespace ls2::mem
