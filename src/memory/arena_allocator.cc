#include "memory/arena_allocator.h"

#include <algorithm>

namespace ls2::mem {

namespace {
constexpr size_t kAlign = 256;  // match cudaMalloc alignment
size_t align_up(size_t n) { return (n + kAlign - 1) / kAlign * kAlign; }
}  // namespace

ArenaAllocator::ArenaAllocator(simgpu::Device& device, size_t capacity_bytes, Backing backing)
    : DeviceAllocator(device, backing), capacity_(align_up(capacity_bytes)) {
  base_ = static_cast<char*>(device_malloc(capacity_));
  free_blocks_.emplace_back(0, capacity_);
  // The whole arena counts as "in use" for the lifetime of training — that
  // is the deliberate trade of §IV-D and what Fig. 20 plots for LightSeq2.
  note_usage(static_cast<int64_t>(capacity_));
}

ArenaAllocator::~ArenaAllocator() {
  note_usage(-static_cast<int64_t>(capacity_));
  device_free(base_, capacity_);
}

void* ArenaAllocator::allocate(size_t bytes) {
  const size_t want = align_up(bytes);
  // The device records this allocation as a graph node under capture and
  // checks it under replay. It also reports an injected transient failure:
  // the request is well within capacity, the allocator just hiccups (driver
  // retry, momentary fragmentation) — typed distinctly from OutOfMemory so
  // callers retry instead of resizing.
  if (device_.on_arena_alloc(static_cast<int64_t>(want))) {
    throw TransientAllocFailure(static_cast<int64_t>(want),
                                static_cast<int64_t>(used_),
                                static_cast<int64_t>(capacity_),
                                device_.current_range());
  }
  // First fit. The free list is sorted by offset, so this also prefers low
  // addresses, which keeps fragmentation down for the LIFO-ish lifetimes of
  // a training step.
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    if (it->second < want) continue;
    const size_t offset = it->first;
    if (it->second == want) {
      free_blocks_.erase(it);
    } else {
      it->first += want;  // the remainder keeps its place in the order
      it->second -= want;
    }
    used_ += want;
    if (used_ > high_water_) high_water_ = used_;
    ++outstanding_;
    return base_ + offset;
  }
  throw OutOfMemory(static_cast<int64_t>(want), static_cast<int64_t>(used_),
                    static_cast<int64_t>(capacity_));
}

void ArenaAllocator::deallocate(void* ptr, size_t bytes) {
  const size_t want = align_up(bytes);
  const size_t offset = static_cast<size_t>(static_cast<char*>(ptr) - base_);
  LS2_CHECK_LE(offset + want, capacity_) << "foreign pointer returned to arena";
  used_ -= want;
  --outstanding_;
  // Insert and coalesce with neighbours.
  auto it = std::lower_bound(
      free_blocks_.begin(), free_blocks_.end(), offset,
      [](const std::pair<size_t, size_t>& b, size_t off) { return b.first < off; });
  LS2_CHECK(it == free_blocks_.end() || it->first != offset) << "double free in arena";
  const bool joins_prev =
      it != free_blocks_.begin() && std::prev(it)->first + std::prev(it)->second == offset;
  const bool joins_next = it != free_blocks_.end() && offset + want == it->first;
  if (joins_prev && joins_next) {
    std::prev(it)->second += want + it->second;
    free_blocks_.erase(it);
  } else if (joins_prev) {
    std::prev(it)->second += want;
  } else if (joins_next) {
    it->first = offset;
    it->second += want;
  } else {
    free_blocks_.insert(it, {offset, want});
  }
}

void ArenaAllocator::reset() {
  LS2_CHECK_EQ(outstanding_, 0) << "arena reset with live tensors";
  free_blocks_.assign(1, {0, capacity_});
  used_ = 0;
}

}  // namespace ls2::mem
