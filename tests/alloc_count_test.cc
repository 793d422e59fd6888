// Host heap traffic of a GPT-2 decode step and of a 3D-parallel training
// step (DESIGN.md §2).
//
// This binary replaces the global operator new with a counting one and
// serves GPT-2 base (FP16, model-only, paged KV, a metrics registry
// attached) until the decode step is in its steady state, then counts the
// heap allocations over N more steps. Three serving steady states are
// pinned:
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
// Training pins a model-only tp2 x pp2 Transformer step per launch (the
// pipeline's remote-stage caching allocator and the TP shard reservations
// included), and a warmed caching-allocator hit-then-free pair at zero.
// The counts are deterministic for a given toolchain and standard library:
// a change that puts an allocation back on any of these paths moves them by a
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

namespace ls2::core {
namespace {

struct TrainCounts {
  int64_t allocations = 0;
  int64_t launches = 0;
  int64_t host_launches = 0;
  int64_t remote_misses = 0;  ///< remote-stage device mallocs while counting
};

/// Rows [0, rows) of `big`, with its token count recomputed.
models::MtBatch take_rows(const models::MtBatch& big, int64_t rows) {
  models::MtBatch b = big;
  b.src_ids = big.src_ids.slice(0, rows);
  b.tgt_in = big.tgt_in.slice(0, rows);
  b.tgt_out = big.tgt_out.slice(0, rows);
  b.src_lens = big.src_lens.slice(0, rows);
  b.tgt_lens = big.tgt_lens.slice(0, rows);
  b.tokens = 0;
  const int32_t* lens = b.tgt_lens.data<int32_t>();
  for (int64_t i = 0; i < rows; ++i) b.tokens += lens[i];
  return b;
}

/// Trains a small FP16 Transformer in model-only mode at dp2 x tp2 x pp2
/// with 4 microbatches (the layout of the benchmark's paper-scale run, an
/// arena sized by the capacity scan) over batches of several shapes, warms
/// every shape up, and counts heap allocations and launches over one more
/// pass.
TrainCounts count_pipelined_train_steps() {
  constexpr int kMicrobatches = 4, kWarmupPasses = 2;
  constexpr uint64_t kSeed = 17;
  models::TransformerConfig cfg = models::TransformerConfig::base(2, 2);
  cfg.vocab = 64;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.ffn_dim = 128;
  cfg.max_len = 64;
  cfg.tp.size = 2;
  cfg.tp.simulate_peers = false;
  dist::ClusterConfig cluster;
  cluster.gpus_per_node = 4;
  cluster.nodes = 2;
  cluster.tensor_parallel = 2;
  cluster.pipeline_parallel = 2;
  cluster.microbatches = kMicrobatches;
  dist::ProcessGroup pg(cluster);

  data::MtDataset ds(cfg.vocab, 512, 4, 40, 23);
  std::vector<models::MtBatch> batches;
  for (const models::MtBatch& b : data::make_mt_batches(ds, 512, DType::kF16)) {
    const int64_t rows = b.src_ids.shape()[0] / kMicrobatches * kMicrobatches;
    if (rows > 0 && batches.size() < 8) batches.push_back(take_rows(b, rows));
  }
  EXPECT_EQ(batches.size(), 8u);

  SessionConfig sc;
  sc.system = layers::System::kLightSeq2;
  sc.profile = simgpu::a100();
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.seed = kSeed;
  CapacityScanOptions opt;
  opt.profile = sc.profile;
  opt.seed = kSeed;
  opt.tp_group = &pg;
  for (const models::MtBatch& b : batches) {
    sc.arena_bytes = std::max(
        sc.arena_bytes, capacity_scan(
                            [&](BufferAllocator* alloc) {
                              return std::make_unique<models::Transformer>(
                                  cfg, sc.system, sc.dtype, kSeed, alloc);
                            },
                            b, opt));
  }
  Session session(sc);
  session.ctx().tp_group = &pg;
  models::Transformer model(cfg, sc.system, sc.dtype, kSeed, session.param_alloc());
  optim::OptimConfig oc;
  oc.dynamic_loss_scale = true;
  auto trainer = optim::make_trainer(sc.system, model.params(), oc, session.param_alloc());

  for (int pass = 0; pass < kWarmupPasses; ++pass)
    for (const models::MtBatch& b : batches) (void)train_step(session, model, b, *trainer, cluster);

  TrainCounts c;
  const simgpu::Device& dev = session.device();
  const int64_t launches_before = dev.stats().launches;
  const int64_t host_before = dev.host_launches();
  const int64_t misses_before = session.pp_state->remote_alloc->cache_misses();
  const int64_t allocs_before = g_allocations.load();
  for (const models::MtBatch& b : batches) (void)train_step(session, model, b, *trainer, cluster);
  c.allocations = g_allocations.load() - allocs_before;
  c.launches = dev.stats().launches - launches_before;
  c.host_launches = dev.host_launches() - host_before;
  c.remote_misses = session.pp_state->remote_alloc->cache_misses() - misses_before;
  return c;
}

TEST(AllocCountTest, ModelOnlyPipelinedTrainStepStaysUnderTheLaunchBound) {
  // Heap allocations per launch, whole 1F1B step included: schedule,
  // bucketed sync, update and bookkeeping. A remote-stage caching-allocator
  // block and a TP shard reservation allocate nothing once warm; what is
  // left is mostly the Buffer handle of each temporary tensor and kernel
  // names longer than the small-string buffer, about 2.38 per launch with
  // libstdc++. One more heap node per tensor or per launch breaks this.
  constexpr double kMaxAllocsPerLaunch = 2.5;
  const TrainCounts c = count_pipelined_train_steps();

  ASSERT_GT(c.launches, 0);
  EXPECT_EQ(c.host_launches, c.launches) << "every launch of an eager step is a host launch";
  EXPECT_EQ(c.remote_misses, 0) << "the warm-up passes saw every batch shape";
  const double per_launch = static_cast<double>(c.allocations) / static_cast<double>(c.launches);
  std::printf("%lld allocations over 8 model-only tp2 x pp2 train steps, %lld launches: "
              "%.3f per launch\n",
              static_cast<long long>(c.allocations), static_cast<long long>(c.launches),
              per_launch);
  EXPECT_LE(per_launch, kMaxAllocsPerLaunch);
}

TEST(AllocCountTest, WarmCachingAllocatorHitAndFreeAllocateNothing) {
  // Sizes on both sides of the 1 MB small/large boundary (1 MB itself is
  // a 2 MB bucket), each freed block re-served by a same-size request or a
  // smaller one within the 2x waste cap. Warm-up runs both kinds of round
  // twice, so the cache holds a block for every request and the free bins
  // and the live table have grown.
  simgpu::Device dev(simgpu::a100(), simgpu::ExecMode::kModelOnly);
  mem::CachingAllocator alloc(dev, mem::DeviceAllocator::Backing::kVirtual);
  const size_t sizes[] = {512, 1000, 64 << 10, (1 << 20) - 100, 1 << 20, 3 << 20, 40 << 20};
  std::vector<void*> held;
  auto round = [&](size_t shrink) {
    for (size_t bytes : sizes) held.push_back(alloc.allocate(bytes - bytes / shrink));
    for (size_t i = 0; i < held.size(); ++i) alloc.deallocate(held[i], 0);
    held.clear();
  };
  held.reserve(std::size(sizes));
  for (int i = 0; i < 4; ++i) round(/*shrink=*/i % 2 == 0 ? 1u << 30 : 4);
  const int64_t misses = alloc.cache_misses(), hits = alloc.cache_hits();
  const int64_t allocs_before = g_allocations.load();
  for (int i = 0; i < 100; ++i) round(/*shrink=*/i % 2 == 0 ? 1u << 30 : 4);
  EXPECT_EQ(g_allocations.load() - allocs_before, 0);
  EXPECT_EQ(alloc.cache_misses(), misses) << "every counted request is a hit";
  EXPECT_EQ(alloc.cache_hits() - hits, 100 * static_cast<int64_t>(std::size(sizes)));
}

}  // namespace
}  // namespace ls2::core
