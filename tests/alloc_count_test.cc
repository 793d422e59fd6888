// Host heap traffic of a replayed decode step (DESIGN.md §2).
//
// This binary replaces the global operator new with a counting one and
// serves GPT-2 base (FP16, model-only, paged KV, a metrics registry
// attached) until every step is a graph replay, then counts the heap
// allocations over N more steps. A simulated launch is meant to cost no
// allocation of its own (non-owning kernel body, inline Shape dims, flat
// arena free list, cached range slot), so the count per launch is pinned
// below a bound. The count is deterministic for a given toolchain and
// standard library: a change that puts an allocation back on the launch
// path moves it by a whole number per launch and fails here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/lightseq2.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ls2::infer {
namespace {

TEST(AllocCountTest, ReplayedModelOnlyDecodeStaysUnderTheLaunchBound) {
  constexpr int64_t kSlots = 16, kMaxLen = 256, kPrompt = 32;
  constexpr int kWarmupSteps = 4, kCountedSteps = 64;
  // Heap allocations per simulated launch, whole decode step included
  // (batcher bookkeeping, SLO refresh, gauges). The launch itself allocates
  // nothing; what is left is the Buffer handle of each temporary tensor and
  // kernel names longer than the small-string buffer, about 2.5 per launch
  // with libstdc++. One more closure or tree node per launch breaks this.
  constexpr double kMaxAllocsPerLaunch = 3.0;

  obs::MetricsRegistry reg;
  core::SessionConfig sc;
  sc.system = layers::System::kLightSeq2;
  sc.profile = simgpu::a100();
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.graph_capture = true;
  sc.metrics = &reg;
  const models::Gpt2Config cfg = models::Gpt2Config::base();
  sc.arena_bytes = serve_capacity_scan(cfg, sc.dtype, kSlots, kMaxLen, kPrompt);
  core::Session session(sc);
  models::Gpt2 model(cfg, sc.system, sc.dtype, 1, session.param_alloc());
  KvCacheConfig kcfg = model.kv_cache_config(kSlots, kMaxLen);
  kcfg.page_tokens = 16;
  kcfg.prefix_sharing = true;
  KvCache cache(kcfg, session.param_alloc());
  ContinuousBatcher engine(session, model, cache, ServeConfig{});

  engine.begin();
  for (int64_t i = 0; i < kSlots; ++i) {
    Request r;
    r.id = i;
    r.prompt.assign(static_cast<size_t>(kPrompt), static_cast<int32_t>(3 + i));
    r.spec.gen_len = kMaxLen - kPrompt;  // outlives the counted steps
    engine.submit(std::move(r));
  }
  for (int i = 0; i < kWarmupSteps; ++i) ASSERT_TRUE(engine.step());
  ASSERT_EQ(engine.resident(), kSlots);

  const simgpu::DeviceStats before = session.device().stats();
  const int64_t allocs_before = g_allocations.load();
  for (int i = 0; i < kCountedSteps; ++i) engine.step();
  const int64_t allocs = g_allocations.load() - allocs_before;
  const simgpu::DeviceStats& after = session.device().stats();

  const int64_t launches = after.launches - before.launches;
  ASSERT_GT(launches, 0);
  EXPECT_EQ(after.replayed_launches - before.replayed_launches, launches)
      << "every counted step must be a graph replay";
  EXPECT_EQ(after.graph_replays - before.graph_replays, kCountedSteps);
  const double per_launch = static_cast<double>(allocs) / static_cast<double>(launches);
  std::printf("%lld allocations over %d replayed decode steps, %lld launches: %.3f per launch\n",
              static_cast<long long>(allocs), kCountedSteps,
              static_cast<long long>(launches), per_launch);
  EXPECT_LE(per_launch, kMaxAllocsPerLaunch);
}

}  // namespace
}  // namespace ls2::infer
