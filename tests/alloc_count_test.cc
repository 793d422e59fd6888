// Host heap traffic of a GPT-2 decode step (DESIGN.md §2).
//
// This binary replaces the global operator new with a counting one and
// serves GPT-2 base (FP16, model-only, paged KV, a metrics registry
// attached) until the decode step is in its steady state, then counts the
// heap allocations over N more steps. Three steady states are pinned:
//  * replayed — the device walks the captured graph and the host issues no
//    launch, so the whole step (batcher bookkeeping, SLO refresh, gauges)
//    is pinned per step;
//  * eager (graph capture off) — every launch goes through the host path,
//    which is meant to cost no allocation of its own (non-owning kernel
//    body, inline Shape dims, flat arena free list, cached range slot), so
//    the count is pinned per launch;
//  * walked admission prefill — a prompt length seen before walks its
//    captured prefill graph, so an admission (lane and pages, the walk,
//    first token, retirement) is pinned per prefill, with no host launch.
// The counts are deterministic for a given toolchain and standard library:
// a change that puts an allocation back on either path moves them by a
// whole number per step or per launch and fails here.
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

struct DecodeCounts {
  int64_t allocations = 0;
  simgpu::DeviceStats before, after;
  int64_t host_launches = 0;
};

constexpr int kCountedSteps = 64;

/// Serves 16 long requests, warms the decode step up, and counts heap
/// allocations and device activity over kCountedSteps more steps.
DecodeCounts count_decode_steps(bool graph_capture) {
  constexpr int64_t kSlots = 16, kMaxLen = 256, kPrompt = 32;
  constexpr int kWarmupSteps = 4;

  obs::MetricsRegistry reg;
  core::SessionConfig sc;
  sc.system = layers::System::kLightSeq2;
  sc.profile = simgpu::a100();
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.graph_capture = graph_capture;
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
  for (int i = 0; i < kWarmupSteps; ++i) EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.resident(), kSlots);

  DecodeCounts c;
  c.before = session.device().stats();
  const int64_t host_before = session.device().host_launches();
  const int64_t allocs_before = g_allocations.load();
  for (int i = 0; i < kCountedSteps; ++i) engine.step();
  c.allocations = g_allocations.load() - allocs_before;
  c.after = session.device().stats();
  c.host_launches = session.device().host_launches() - host_before;
  return c;
}

struct PrefillCounts {
  int64_t allocations = 0;
  int64_t prefills = 0, walked_prefills = 0;
  int64_t launches = 0, host_launches = 0;
};

/// Admits kCountedPrefills one-token requests of one prompt length, after
/// a warm-up admission captured that length's prefill, and counts heap
/// allocations and device activity over the admissions.
PrefillCounts count_walked_prefills() {
  constexpr int64_t kSlots = 16, kMaxLen = 256, kPrompt = 40;
  constexpr int64_t kCountedPrefills = 64;

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
  // Prefix sharing off: its registry allocates per fresh page (about 12
  // more per admission here), which is the cache's cost, not the prefill's.
  kcfg.prefix_sharing = false;
  KvCache cache(kcfg, session.param_alloc());
  ContinuousBatcher engine(session, model, cache, ServeConfig{});

  // Every request retires at its first token, so each step admits all the
  // queued ones, one prefill after another, and runs no decode step.
  engine.begin();
  auto submit = [&](int64_t id) {
    Request r;
    r.id = id;
    r.prompt.assign(static_cast<size_t>(kPrompt), static_cast<int32_t>(3 + id));
    r.spec.gen_len = 1;
    engine.submit(std::move(r));
  };
  submit(0);
  EXPECT_FALSE(engine.step());  // captures the length's prefill
  for (int64_t i = 1; i <= kCountedPrefills; ++i) submit(i);

  PrefillCounts c;
  const simgpu::Device& dev = session.device();
  const int64_t launches_before = dev.stats().launches;
  const int64_t host_before = dev.host_launches();
  const int64_t allocs_before = g_allocations.load();
  EXPECT_FALSE(engine.step());
  c.allocations = g_allocations.load() - allocs_before;
  c.launches = dev.stats().launches - launches_before;
  c.host_launches = dev.host_launches() - host_before;
  EXPECT_EQ(engine.queue_depth(), 0);
  const ServeReport rep = engine.finish();
  c.prefills = rep.prefills - 1;
  c.walked_prefills = rep.walked_prefills;
  return c;
}

TEST(AllocCountTest, WalkedModelOnlyPrefillStaysUnderThePrefillBound) {
  // Heap allocations per admission whose prefill walks its length's graph,
  // everything the engine does for it included: the sequence's page list
  // and map node, the first token, the retirement, about 3.2 with
  // libstdc++. The walk itself allocates nothing; an eager GPT-2 base
  // prefill (184 launches) costs hundreds.
  constexpr double kMaxAllocsPerPrefill = 4.0;
  const PrefillCounts c = count_walked_prefills();

  ASSERT_EQ(c.prefills, 64);
  EXPECT_EQ(c.walked_prefills, c.prefills) << "every counted prefill must walk";
  EXPECT_GT(c.launches, 0);
  EXPECT_EQ(c.host_launches, 0) << "a walked prefill launches nothing from the host";
  const double per_prefill =
      static_cast<double>(c.allocations) / static_cast<double>(c.prefills);
  std::printf("%lld allocations over %lld walked prefills (%lld walked launches): "
              "%.3f per prefill\n",
              static_cast<long long>(c.allocations), static_cast<long long>(c.prefills),
              static_cast<long long>(c.launches), per_prefill);
  EXPECT_LE(per_prefill, kMaxAllocsPerPrefill);
}

TEST(AllocCountTest, ReplayedModelOnlyDecodeStaysUnderTheStepBound) {
  // Heap allocations per replayed step, everything the engine does
  // included. The walk itself allocates nothing; about 1.25 per step are
  // left with libstdc++. Re-running the model on the host would cost
  // hundreds.
  constexpr double kMaxAllocsPerStep = 2.0;
  const DecodeCounts c = count_decode_steps(/*graph_capture=*/true);

  const int64_t launches = c.after.launches - c.before.launches;
  ASSERT_GT(launches, 0);
  EXPECT_EQ(c.after.replayed_launches - c.before.replayed_launches, launches)
      << "every counted step must be a graph replay";
  EXPECT_EQ(c.after.graph_replays - c.before.graph_replays, kCountedSteps);
  EXPECT_EQ(c.host_launches, 0) << "a walked replay issues no launch from the host";
  const double per_step = static_cast<double>(c.allocations) / kCountedSteps;
  std::printf("%lld allocations over %d replayed decode steps (%lld walked launches): "
              "%.3f per step\n",
              static_cast<long long>(c.allocations), kCountedSteps,
              static_cast<long long>(launches), per_step);
  EXPECT_LE(per_step, kMaxAllocsPerStep);
}

TEST(AllocCountTest, EagerDecodeStaysUnderTheLaunchBound) {
  // Heap allocations per eager launch, whole decode step included. The
  // launch itself allocates nothing; what is left is the Buffer handle of
  // each temporary tensor and kernel names longer than the small-string
  // buffer, about 2.5 per launch with libstdc++. One more closure or tree
  // node per launch breaks this.
  constexpr double kMaxAllocsPerLaunch = 3.0;
  const DecodeCounts c = count_decode_steps(/*graph_capture=*/false);

  const int64_t launches = c.after.launches - c.before.launches;
  ASSERT_GT(launches, 0);
  EXPECT_EQ(c.after.graph_replays, 0);
  EXPECT_EQ(c.host_launches, launches) << "every eager launch comes from the host";
  const double per_launch = static_cast<double>(c.allocations) / static_cast<double>(launches);
  std::printf("%lld allocations over %d eager decode steps, %lld launches: %.3f per launch\n",
              static_cast<long long>(c.allocations), kCountedSteps,
              static_cast<long long>(launches), per_launch);
  EXPECT_LE(per_launch, kMaxAllocsPerLaunch);
}

}  // namespace
}  // namespace ls2::infer
