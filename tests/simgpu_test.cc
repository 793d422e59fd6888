#include "simgpu/device.h"

#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "common/check.h"
#include "simgpu/fault.h"
#include "simgpu/profile.h"

namespace ls2::simgpu {
namespace {

KernelDesc bytes_kernel(int64_t bytes, double eff = 0.8) {
  KernelDesc d;
  d.name = "test.bytes";
  d.bytes_read = bytes / 2;
  d.bytes_written = bytes - bytes / 2;
  d.mem_efficiency = eff;
  return d;
}

TEST(ProfileTest, LookupByName) {
  EXPECT_EQ(profile_by_name("v100").name, "V100");
  EXPECT_EQ(profile_by_name("A100").name, "A100");
  EXPECT_THROW(profile_by_name("h100"), Error);
}

TEST(ProfileTest, A100IsFasterThanV100) {
  const DeviceProfile v = v100(), a = a100();
  EXPECT_GT(a.mem_bw_gb_s, v.mem_bw_gb_s);
  EXPECT_GT(a.fp16_tflops, v.fp16_tflops);
}

TEST(DeviceTest, BandwidthBoundKernelTime) {
  Device dev(v100(), ExecMode::kModelOnly);
  // 900 GB/s * 0.8 eff => 720 bytes/ns. 720 MB should take 1000 us.
  const double t = dev.kernel_time_us(bytes_kernel(720 * 1000 * 1000));
  EXPECT_NEAR(t, 1000.0, 1e-6);
}

TEST(DeviceTest, ComputeBoundKernelTime) {
  Device dev(v100(), ExecMode::kModelOnly);
  KernelDesc d;
  d.name = "test.flops";
  d.flops = 15.7e12 * 0.7 * 1e-3;  // exactly 1 ms at 70% of fp32 peak
  d.compute_efficiency = 0.7;
  EXPECT_NEAR(dev.kernel_time_us(d), 1000.0, 1e-6);
}

TEST(DeviceTest, TensorCoreUsesFp16Peak) {
  Device dev(v100(), ExecMode::kModelOnly);
  KernelDesc d;
  d.name = "test.tc";
  d.flops = 1e12;
  d.compute_efficiency = 0.5;
  d.tensor_core = false;
  const double fp32_t = dev.kernel_time_us(d);
  d.tensor_core = true;
  const double fp16_t = dev.kernel_time_us(d);
  EXPECT_NEAR(fp32_t / fp16_t, 125.0 / 15.7, 1e-6);
}

TEST(DeviceTest, LaunchAdvancesClockAndStats) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  EXPECT_NEAR(dev.clock_us(), 4.5 + 1.0, 1e-9);
  EXPECT_EQ(dev.stats().launches, 1);
  EXPECT_EQ(dev.stats().bytes_moved, 720 * 1000);
}

TEST(DeviceTest, ModelOnlySkipsBody) {
  Device dev(v100(), ExecMode::kModelOnly);
  bool ran = false;
  dev.launch(bytes_kernel(100), [&] { ran = true; });
  EXPECT_FALSE(ran);
  dev.set_mode(ExecMode::kExecute);
  dev.launch(bytes_kernel(100), [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(DeviceTest, RangesAttributeTime) {
  Device dev(v100(), ExecMode::kModelOnly);
  {
    ScopedRange fw(dev, "forward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
    {
      ScopedRange inner(dev, "attn");
      dev.launch(bytes_kernel(720 * 1000), nullptr);
    }
  }
  {
    ScopedRange bw(dev, "backward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
  }
  EXPECT_NEAR(dev.range_time_us("forward"), 5.5, 1e-9);
  EXPECT_NEAR(dev.range_time_us("attn"), 5.5, 1e-9);
  EXPECT_NEAR(dev.range_time_us("backward"), 5.5, 1e-9);
  EXPECT_EQ(dev.range_time_us("update"), 0.0);
}

TEST(DeviceTest, ResetInsideARangeKeepsAttributing) {
  // The open range caches its range_times_ slot; reset() clears the map, so
  // the slot must be dropped too and the next launch re-creates the entry.
  Device dev(v100(), ExecMode::kModelOnly);
  ScopedRange fw(dev, "forward");
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  dev.reset();
  EXPECT_EQ(dev.range_time_us("forward"), 0.0);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  EXPECT_NEAR(dev.range_time_us("forward"), 2 * 5.5, 1e-9);
  EXPECT_EQ(dev.range_times().size(), 1u);
}

TEST(DeviceTest, UtilizationCountsOverheadAsIdle) {
  Device dev(v100(), ExecMode::kModelOnly);
  // Launch overhead 4.5us + exec 1.0us => utilization ~ 1/5.5.
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  EXPECT_NEAR(dev.utilization(), 1.0 / 5.5, 1e-9);
}

TEST(DeviceTest, PerKernelStatsAggregate) {
  Device dev(v100(), ExecMode::kModelOnly);
  for (int i = 0; i < 3; ++i) dev.launch(bytes_kernel(720 * 1000), nullptr);
  const auto& pk = dev.per_kernel().at("test.bytes");
  EXPECT_EQ(pk.launches, 3);
  EXPECT_NEAR(pk.time_us, 3 * 5.5, 1e-9);
}

TEST(DeviceTest, ResetClearsEverything) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.launch(bytes_kernel(100), nullptr);
  dev.reset();
  EXPECT_EQ(dev.clock_us(), 0.0);
  EXPECT_EQ(dev.stats().launches, 0);
  EXPECT_TRUE(dev.per_kernel().empty());
}

TEST(TimelineTest, UtilizationSeries) {
  Timeline tl;
  tl.record_busy(0, 50);     // bucket 0: 50% busy
  tl.record_busy(100, 300);  // buckets 1-2: fully busy
  const auto series = tl.utilization_series(100, 300);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_NEAR(series[0], 0.5, 1e-9);
  EXPECT_NEAR(series[1], 1.0, 1e-9);
  EXPECT_NEAR(series[2], 1.0, 1e-9);
}

TEST(TimelineTest, MemorySeriesCarriesForward) {
  Timeline tl;
  tl.record_memory(10, 1000);
  tl.record_memory(250, 3000);
  const auto series = tl.memory_series(100, 400);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0], 1000);
  EXPECT_EQ(series[1], 1000);
  EXPECT_EQ(series[2], 3000);
  EXPECT_EQ(series[3], 3000);
  EXPECT_EQ(tl.peak_memory_bytes(), 3000);
}

TEST(DeviceTest, AdvanceBusyVsIdle) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.advance(10.0, /*busy=*/true, "comm");
  dev.advance(30.0, /*busy=*/false, "wait");
  EXPECT_NEAR(dev.clock_us(), 40.0, 1e-9);
  EXPECT_NEAR(dev.utilization(), 0.25, 1e-9);
  EXPECT_NEAR(dev.range_time_us("comm"), 10.0, 1e-9);
  EXPECT_NEAR(dev.range_time_us("wait"), 30.0, 1e-9);
}

TEST(DeviceTest, OverheadSplitsIntoLaunchGapAndAllocStall) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.launch(bytes_kernel(720 * 1000), nullptr);  // 4.5 gap + 1.0 exec
  dev.charge_alloc(/*cache_hit=*/true);           // 2.0
  dev.charge_alloc(/*cache_hit=*/false);          // 120.0
  dev.charge_free();                              // 60.0
  const auto& s = dev.stats();
  EXPECT_NEAR(s.launch_gap_us, 4.5, 1e-9);
  EXPECT_NEAR(s.alloc_stall_us, 2.0 + 120.0 + 60.0, 1e-9);
  EXPECT_NEAR(s.overhead_us, s.launch_gap_us + s.alloc_stall_us, 1e-9);
}

// --- wait_comm_until edge cases ---

TEST(CommStreamTest, WaitOnAlreadyPassedTimestampIsStrictNoOp) {
  Device dev(v100(), ExecMode::kModelOnly);
  const double done = dev.enqueue_comm(50.0, "sync");
  dev.advance(80.0, /*busy=*/true, "compute");  // compute is past the transfer
  const auto before = dev.stats();
  const double clock_before = dev.clock_us();
  EXPECT_EQ(dev.wait_comm_until(done, "sync"), 0.0);
  // Waiting on a timestamp later than anything enqueued is also a no-op.
  EXPECT_EQ(dev.wait_comm_until(done + 1000.0, "sync"), 0.0);
  EXPECT_EQ(dev.clock_us(), clock_before);
  EXPECT_EQ(dev.stats().exposed_comm_us, before.exposed_comm_us);
  EXPECT_EQ(dev.stats().busy_us, before.busy_us);
  EXPECT_EQ(dev.stats().overhead_us, before.overhead_us);
  EXPECT_EQ(dev.range_time_us("sync"), 0.0);
}

TEST(CommStreamTest, InterleavedWaitsPreserveExposedAccounting) {
  Device dev(v100(), ExecMode::kModelOnly);
  const double d1 = dev.enqueue_comm(30.0, "b0");  // completes at 30
  const double d2 = dev.enqueue_comm(40.0, "b1");  // serialized: completes at 70
  EXPECT_NEAR(d1, 30.0, 1e-9);
  EXPECT_NEAR(d2, 70.0, 1e-9);
  // Wait on the FIRST transfer only: exposes 30 (compute at 0), later
  // transfer keeps running.
  EXPECT_NEAR(dev.wait_comm_until(d1, "sync"), 30.0, 1e-9);
  EXPECT_NEAR(dev.clock_us(), 30.0, 1e-9);
  // Overlap 25 us of compute, then wait on the second: exposes only 15.
  dev.advance(25.0, /*busy=*/true, "update");
  EXPECT_NEAR(dev.wait_comm_until(d2, "sync"), 15.0, 1e-9);
  EXPECT_NEAR(dev.clock_us(), 70.0, 1e-9);
  // Exposed total equals the sum of the individual waits, attributed where
  // they happened; a final full drain has nothing left.
  EXPECT_NEAR(dev.stats().exposed_comm_us, 45.0, 1e-9);
  EXPECT_NEAR(dev.range_time_us("sync"), 45.0, 1e-9);
  EXPECT_NEAR(dev.sync_comm("sync"), 0.0, 1e-9);
  EXPECT_NEAR(dev.stats().comm_us, 70.0, 1e-9);
  EXPECT_EQ(dev.stats().comm_transfers, 2);
}

// --- step-graph capture & replay ---

TEST(StepGraphTest, CaptureRecordsAndReplayDropsLaunchGaps) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.launch(bytes_kernel(720 * 1000), nullptr);      // 1.0 us exec
  dev.launch(bytes_kernel(2 * 720 * 1000), nullptr);  // 2.0 us exec
  StepGraph graph = dev.end_capture();
  ASSERT_TRUE(graph.valid);
  EXPECT_EQ(graph.kernel_launches, 2);
  EXPECT_NEAR(graph.kernel_exec_us, 3.0, 1e-9);
  // Capture charged eagerly: 2 launches x (4.5 + exec).
  EXPECT_NEAR(dev.clock_us(), 2 * 4.5 + 3.0, 1e-9);
  const double gap_before = dev.stats().launch_gap_us;

  const double t0 = dev.clock_us();
  dev.begin_replay(graph);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  dev.launch(bytes_kernel(2 * 720 * 1000), nullptr);
  dev.end_replay();
  // One graph launch (10 us on V100) + back-to-back exec, no per-kernel gap.
  EXPECT_NEAR(dev.clock_us() - t0, 10.0 + 3.0, 1e-9);
  EXPECT_EQ(dev.stats().launch_gap_us, gap_before);
  EXPECT_EQ(dev.stats().graph_replays, 1);
  EXPECT_EQ(dev.stats().replayed_launches, 2);
  EXPECT_NEAR(dev.stats().graph_launch_us, 10.0, 1e-9);
  EXPECT_EQ(dev.stats().launches, 4);  // kernel executions, eager + replayed
}

TEST(StepGraphTest, ReplayAttributesTimeToLiveRanges) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  {
    ScopedRange r(dev, "forward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
  }
  StepGraph graph = dev.end_capture();
  const double fw_before = dev.range_time_us("forward");
  dev.begin_replay(graph);
  {
    ScopedRange r(dev, "forward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
  }
  dev.end_replay();
  // The replayed kernel's exec time still lands in the active range.
  EXPECT_NEAR(dev.range_time_us("forward") - fw_before, 1.0, 1e-9);
}

TEST(StepGraphTest, ReplayValidatesNodeSequence) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  StepGraph graph = dev.end_capture();

  // Mismatched descriptor.
  dev.begin_replay(graph);
  KernelDesc other = bytes_kernel(720 * 1000);
  other.name = "test.other";
  EXPECT_THROW(dev.launch(other, nullptr), Error);
  dev.abort_graph();

  // More launches than captured.
  dev.begin_replay(graph);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  EXPECT_THROW(dev.launch(bytes_kernel(720 * 1000), nullptr), Error);
  dev.abort_graph();

  // Fewer launches than captured.
  dev.begin_replay(graph);
  EXPECT_THROW(dev.end_replay(), Error);
  dev.abort_graph();
}

TEST(StepGraphTest, AllocatorStallPoisonsCapture) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.charge_alloc(/*cache_hit=*/true);  // cached hits are not stalls
  dev.launch(bytes_kernel(100), nullptr);
  dev.charge_alloc(/*cache_hit=*/false);  // cudaMalloc: poison
  dev.launch(bytes_kernel(100), nullptr);  // capture keeps charging eagerly
  StepGraph graph = dev.end_capture();
  EXPECT_FALSE(graph.valid);
  EXPECT_NE(graph.poison_reason.find("allocator stall"), std::string::npos);
  EXPECT_THROW(dev.begin_replay(graph), Error);
}

TEST(StepGraphTest, StreamSyncPoisonsCapture) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.enqueue_comm(10.0, "sync");
  dev.sync_comm("sync");
  StepGraph graph = dev.end_capture();
  EXPECT_FALSE(graph.valid);
  EXPECT_NE(graph.poison_reason.find("sync"), std::string::npos);
}

TEST(StepGraphTest, CommStatsConsistentUnderReplay) {
  // The same enqueue/wait schedule, eager vs replayed: comm bookkeeping is
  // identical; only launch gaps differ. Completion times are replay-time
  // parameters — the replayed wait exposes whatever the live clocks imply.
  auto run = [](bool replayed, StepGraph* captured) {
    Device dev(v100(), ExecMode::kModelOnly);
    if (replayed) dev.begin_replay(*captured);
    else dev.begin_capture();
    dev.launch(bytes_kernel(720 * 1000), nullptr);
    const double done = dev.enqueue_comm(20.0, "b0");
    const double exposed = dev.wait_comm_until(done, "sync");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
    if (replayed) dev.end_replay();
    else *captured = dev.end_capture();
    return std::tuple{dev.stats().comm_transfers, dev.stats().comm_us,
                      dev.stats().exposed_comm_us, exposed};
  };
  StepGraph graph;
  const auto [n_eager, us_eager, exp_eager, wait_eager] = run(false, &graph);
  ASSERT_TRUE(graph.valid);
  const auto [n_replay, us_replay, exp_replay, wait_replay] = run(true, &graph);
  EXPECT_EQ(n_eager, n_replay);
  EXPECT_EQ(us_eager, us_replay);
  // The transfer starts at the (then-current) compute clock in both runs,
  // so an immediate wait exposes the full 20 us either way — and the
  // exposed-comm stat matches the returned wait exactly.
  EXPECT_NEAR(wait_eager, 20.0, 1e-9);
  EXPECT_NEAR(wait_replay, 20.0, 1e-9);
  EXPECT_EQ(exp_eager, wait_eager);
  EXPECT_EQ(exp_replay, wait_replay);
}

// Every form a kernel body takes at the call sites runs exactly once per
// launch in kExecute — eager, while capturing, and under replay — and
// never in kModelOnly; the empty forms never run.
TEST(KernelBodyTest, EveryBodyFormRunsOncePerLaunchOnlyInExecute) {
  EXPECT_FALSE(KernelBody(nullptr));
  EXPECT_FALSE(KernelBody{});
  EXPECT_FALSE(KernelBody(std::function<void()>()));
  EXPECT_TRUE(KernelBody([] {}));

  for (ExecMode mode : {ExecMode::kExecute, ExecMode::kModelOnly}) {
    Device dev(v100(), mode);
    int fn_runs = 0, lambda_runs = 0;
    const std::function<void()> counted = [&] { ++fn_runs; };
    const int per_phase = mode == ExecMode::kExecute ? 1 : 0;
    auto launch_all = [&] {
      dev.launch(bytes_kernel(100), nullptr);
      dev.launch(bytes_kernel(100), {});
      dev.launch(bytes_kernel(100), std::function<void()>());
      dev.launch(bytes_kernel(100), counted);
      dev.launch(bytes_kernel(100), [&] { ++lambda_runs; });
    };

    launch_all();  // eager
    EXPECT_EQ(fn_runs, per_phase);
    EXPECT_EQ(lambda_runs, per_phase);

    dev.begin_capture();
    launch_all();
    StepGraph graph = dev.end_capture();
    ASSERT_TRUE(graph.valid);
    EXPECT_EQ(graph.kernel_launches, 5);
    EXPECT_EQ(fn_runs, 2 * per_phase);
    EXPECT_EQ(lambda_runs, 2 * per_phase);

    dev.begin_replay(graph);
    launch_all();
    dev.end_replay();
    EXPECT_EQ(fn_runs, 3 * per_phase);
    EXPECT_EQ(lambda_runs, 3 * per_phase);
    EXPECT_EQ(dev.stats().launches, 15);
    EXPECT_EQ(dev.stats().replayed_launches, 5);
  }
}

TEST(StepGraphTest, ResetAbortsGraphPhase) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.launch(bytes_kernel(100), nullptr);
  dev.reset();
  EXPECT_FALSE(dev.capturing());
  dev.begin_capture();  // would throw if the phase leaked
  (void)dev.end_capture();
}

// --- arena allocations as graph nodes, and the walked replay ---

KernelDesc named_kernel(const char* name, int64_t bytes) {
  KernelDesc d = bytes_kernel(bytes);
  d.name = name;
  return d;
}

/// The decode-shaped step these tests capture: two kernels around one
/// arena allocation, inside a "decode" range.
void issue_step(Device& dev) {
  ScopedRange r(dev, "decode");
  dev.launch(named_kernel("test.a", 720 * 1000), nullptr);
  EXPECT_FALSE(dev.on_arena_alloc(512));
  dev.launch(named_kernel("test.b", 2 * 720 * 1000), nullptr);
}

StepGraph capture_step(Device& dev) {
  dev.begin_capture();
  issue_step(dev);
  StepGraph graph = dev.end_capture();
  EXPECT_TRUE(graph.valid);
  return graph;
}

TEST(StepGraphTest, ArenaAllocationsAreValidatedUnderHostDrivenReplay) {
  Device dev(v100(), ExecMode::kModelOnly);
  const StepGraph graph = capture_step(dev);
  ASSERT_EQ(graph.size(), 3u);
  EXPECT_EQ(graph.node(1).kind, GraphNode::Kind::kAlloc);
  EXPECT_EQ(graph.node(1).alloc_bytes, 512);
  EXPECT_EQ(graph.node(1).range, "decode");
  EXPECT_EQ(graph.kernel_launches, 2);

  // The captured sequence replays cleanly.
  dev.begin_replay(graph);
  issue_step(dev);
  dev.end_replay();

  // An extra allocation meets a kernel node.
  dev.begin_replay(graph);
  dev.launch(named_kernel("test.a", 720 * 1000), nullptr);
  EXPECT_FALSE(dev.on_arena_alloc(512));
  EXPECT_THROW(dev.on_arena_alloc(512), GraphError);
  dev.abort_graph();

  // A missing allocation: the next launch meets the allocation node.
  dev.begin_replay(graph);
  dev.launch(named_kernel("test.a", 720 * 1000), nullptr);
  EXPECT_THROW(dev.launch(named_kernel("test.b", 2 * 720 * 1000), nullptr), GraphError);
  dev.abort_graph();

  // A different size is a different address set.
  dev.begin_replay(graph);
  dev.launch(named_kernel("test.a", 720 * 1000), nullptr);
  EXPECT_THROW(dev.on_arena_alloc(1024), GraphError);
  dev.abort_graph();

  // An allocation past the end of the graph.
  dev.begin_replay(graph);
  issue_step(dev);
  EXPECT_THROW(dev.on_arena_alloc(512), GraphError);
  dev.abort_graph();
}

TEST(StepGraphTest, WalkChargesExactlyAsHostDrivenReplay) {
  // Same capture, same faults (a spike on test.b); one device replays with
  // the host issuing the step, the other walks.
  FaultPlan plan;
  plan.add(FaultPlan::kernel_spike(/*step=*/0, "test.b", /*factor=*/3.0));
  FaultInjector fa(plan), fb(plan);
  Device host(v100(), ExecMode::kModelOnly), walked(v100(), ExecMode::kModelOnly);
  host.set_fault_injector(&fa);
  walked.set_fault_injector(&fb);
  host.set_record_timeline(true);
  walked.set_record_timeline(true);
  const StepGraph gh = capture_step(host);
  const StepGraph gw = capture_step(walked);
  fa.arm(0);
  fb.arm(0);

  for (int rep = 0; rep < 2; ++rep) {
    host.begin_replay(gh);
    issue_step(host);
    host.end_replay();
    walked.begin_replay(gw);
    {
      ScopedRange r(walked, "decode");
      EXPECT_EQ(walked.walk_replay(), nullptr);
    }
    walked.end_replay();
  }

  EXPECT_EQ(host.clock_us(), walked.clock_us());
  EXPECT_EQ(host.stats().launches, walked.stats().launches);
  EXPECT_EQ(host.stats().replayed_launches, walked.stats().replayed_launches);
  EXPECT_EQ(host.stats().bytes_moved, walked.stats().bytes_moved);
  EXPECT_EQ(host.stats().busy_us, walked.stats().busy_us);
  EXPECT_EQ(host.stats().overhead_us, walked.stats().overhead_us);
  EXPECT_EQ(host.stats().graph_launch_us, walked.stats().graph_launch_us);
  EXPECT_EQ(host.range_times(), walked.range_times());
  for (const char* k : {"test.a", "test.b"}) {
    EXPECT_EQ(host.per_kernel().at(k).launches, walked.per_kernel().at(k).launches);
    EXPECT_EQ(host.per_kernel().at(k).time_us, walked.per_kernel().at(k).time_us);
    EXPECT_EQ(host.per_kernel().at(k).exec_us, walked.per_kernel().at(k).exec_us);
  }
  EXPECT_EQ(fa.kernel_spikes(), 1);
  EXPECT_EQ(fb.kernel_spikes(), 1);
  const auto& hb = host.timeline().busy_spans();
  const auto& wb = walked.timeline().busy_spans();
  ASSERT_EQ(hb.size(), wb.size());
  for (size_t i = 0; i < hb.size(); ++i) {
    EXPECT_EQ(hb[i].begin_us, wb[i].begin_us);
    EXPECT_EQ(hb[i].end_us, wb[i].end_us);
  }
  // Only the host-driven replays issued launches: 2 captured + 2 x 2.
  EXPECT_EQ(host.host_launches(), 6);
  EXPECT_EQ(walked.host_launches(), 2);
}

TEST(StepGraphTest, WalkStopsAtAFailedAllocation) {
  FaultPlan plan;
  plan.add(FaultPlan::alloc_fail(/*step=*/1, /*count=*/1, "decode"));
  FaultInjector faults(plan);
  Device dev(v100(), ExecMode::kModelOnly);
  dev.set_fault_injector(&faults);
  const StepGraph graph = capture_step(dev);
  faults.arm(1);

  const int64_t launches = dev.stats().launches;
  dev.begin_replay(graph);
  const GraphNode* failed = dev.walk_replay();
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->kind, GraphNode::Kind::kAlloc);
  EXPECT_EQ(failed->alloc_bytes, 512);
  // test.a ran before the allocation; test.b never did.
  EXPECT_EQ(dev.stats().launches, launches + 1);
  EXPECT_THROW(dev.end_replay(), GraphError);
  dev.abort_graph();

  // The fault fired once: the retried step walks to the end.
  dev.begin_replay(graph);
  EXPECT_EQ(dev.walk_replay(), nullptr);
  dev.end_replay();
  EXPECT_EQ(dev.stats().launches, launches + 3);
}

TEST(StepGraphTest, WalkRejectsCommNodes) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  const double done = dev.enqueue_comm(20.0, "b0");
  (void)dev.wait_comm_until(done, "sync");
  const StepGraph graph = dev.end_capture();
  ASSERT_TRUE(graph.valid);

  const int64_t launches = dev.stats().launches;
  dev.begin_replay(graph);
  EXPECT_THROW(dev.walk_replay(), GraphError);
  EXPECT_EQ(dev.stats().launches, launches) << "nothing is charged before the rejection";
  dev.abort_graph();
}

TEST(StepGraphTest, WalkAfterResetAttributesIntoFreshStats) {
  // The walk caches per-node stats slots; reset() clears the maps they
  // point into, so the next walk must resolve them again.
  Device dev(v100(), ExecMode::kModelOnly);
  const StepGraph graph = capture_step(dev);
  dev.begin_replay(graph);
  ASSERT_EQ(dev.walk_replay(), nullptr);
  dev.end_replay();
  EXPECT_EQ(dev.per_kernel().at("test.a").launches, 2);

  dev.reset();
  EXPECT_TRUE(dev.per_kernel().empty());
  dev.begin_replay(graph);
  ASSERT_EQ(dev.walk_replay(), nullptr);
  dev.end_replay();
  EXPECT_EQ(dev.per_kernel().size(), 2u);
  EXPECT_EQ(dev.per_kernel().at("test.a").launches, 1);
  EXPECT_NEAR(dev.per_kernel().at("test.a").exec_us, 1.0, 1e-9);
  EXPECT_EQ(dev.per_kernel().at("test.b").launches, 1);
  EXPECT_NEAR(dev.per_kernel().at("test.b").exec_us, 2.0, 1e-9);
  // The captured range gets the kernels' time; the graph launch itself
  // was charged outside any range.
  EXPECT_EQ(dev.range_times().size(), 1u);
  EXPECT_NEAR(dev.range_time_us("decode"), 3.0, 1e-9);
  EXPECT_EQ(dev.stats().launches, 2);
  EXPECT_EQ(dev.stats().replayed_launches, 2);
}

// --- the eager walk: a captured graph standing in for eager launches ---

/// A prefill-shaped step: three identical blocks of two kernels around an
/// arena allocation, then a head kernel, inside a "prefill" range. Stops
/// (returns false) where an allocation fault fails it, as the arena would.
bool launch_prefill(Device& dev) {
  ScopedRange r(dev, "prefill");
  for (int block = 0; block < 3; ++block) {
    dev.launch(named_kernel("test.a", 720 * 1000), nullptr);
    if (dev.on_arena_alloc(512)) return false;
    dev.launch(named_kernel("test.b", 2 * 720 * 1000), nullptr);
  }
  dev.launch(named_kernel("test.head", 3 * 720 * 1000), nullptr);
  return true;
}

void expect_same_charges(const Device& a, const Device& b) {
  EXPECT_EQ(a.clock_us(), b.clock_us());
  const DeviceStats& x = a.stats();
  const DeviceStats& y = b.stats();
  EXPECT_EQ(x.launches, y.launches);
  EXPECT_EQ(x.bytes_moved, y.bytes_moved);
  EXPECT_EQ(x.flops, y.flops);
  EXPECT_EQ(x.busy_us, y.busy_us);
  EXPECT_EQ(x.overhead_us, y.overhead_us);
  EXPECT_EQ(x.launch_gap_us, y.launch_gap_us);
  EXPECT_EQ(x.alloc_stall_us, y.alloc_stall_us);
  EXPECT_EQ(x.graph_replays, y.graph_replays);
  EXPECT_EQ(x.replayed_launches, y.replayed_launches);
  EXPECT_EQ(x.graph_launch_us, y.graph_launch_us);
  ASSERT_EQ(a.per_kernel().size(), b.per_kernel().size());
  for (auto ia = a.per_kernel().begin(), ib = b.per_kernel().begin();
       ia != a.per_kernel().end(); ++ia, ++ib) {
    SCOPED_TRACE(ia->first);
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.launches, ib->second.launches);
    EXPECT_EQ(ia->second.bytes, ib->second.bytes);
    EXPECT_EQ(ia->second.flops, ib->second.flops);
    EXPECT_EQ(ia->second.time_us, ib->second.time_us);
    EXPECT_EQ(ia->second.exec_us, ib->second.exec_us);
    EXPECT_EQ(ia->second.tensor_core, ib->second.tensor_core);
  }
  EXPECT_EQ(a.range_times(), b.range_times());
  const auto& ta = a.timeline().busy_spans();
  const auto& tb = b.timeline().busy_spans();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].begin_us, tb[i].begin_us) << "busy span " << i;
    EXPECT_EQ(ta[i].end_us, tb[i].end_us) << "busy span " << i;
  }
}

TEST(StepGraphTest, CaptureStoresEachDistinctOperationOnce) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  ASSERT_TRUE(launch_prefill(dev));
  const StepGraph graph = dev.end_capture();
  ASSERT_TRUE(graph.valid);
  ASSERT_EQ(graph.size(), 10u);
  EXPECT_EQ(graph.ops.size(), 4u) << "test.a, the allocation, test.b, test.head";
  EXPECT_EQ(graph.kernel_launches, 7);
  const char* names[] = {"test.a", "", "test.b"};
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(graph.node(i).desc.name, names[i % 3]) << "node " << i;
    EXPECT_EQ(graph.node(i).range, "prefill");
    EXPECT_EQ(graph.order[i], graph.order[i % 3]) << "blocks share their operations";
  }
  EXPECT_EQ(graph.node(9).desc.name, "test.head");
}

/// Runs the prefill step on `eager` by launching it and on `walked` by
/// walking `graph` (captured there earlier), both with `plan` armed at step
/// 1. Returns whether each finished.
std::pair<bool, bool> run_eager_and_walked(Device& eager, Device& walked, const StepGraph& graph,
                                           FaultInjector& fe, FaultInjector& fw) {
  fe.arm(1);
  fw.arm(1);
  bool eager_done = false, walked_done = false;
  try {
    eager_done = launch_prefill(eager);
  } catch (const DeviceLostError&) {
  }
  try {
    // Outside any range: a walked kernel's time goes to its captured range.
    walked_done = walked.walk_eager(graph) == nullptr;
  } catch (const DeviceLostError&) {
  }
  return {eager_done, walked_done};
}

TEST(StepGraphTest, EagerWalkChargesExactlyAsEagerLaunches) {
  struct Case {
    const char* what;
    FaultPlan plan;
    bool finishes;
  };
  std::vector<Case> cases(4);
  cases[0] = {"fault-free", {}, true};
  cases[1] = {"kernel spike", {}, true};
  cases[1].plan.add(FaultPlan::kernel_spike(/*step=*/1, "test.b", /*factor=*/3.0, /*count=*/2));
  cases[2] = {"allocation fault", {}, false};
  cases[2].plan.add(FaultPlan::alloc_fail(/*step=*/1, /*count=*/1, "prefill"));
  cases[3] = {"device loss", {}, false};
  cases[3].plan.add(FaultPlan::device_loss(/*step=*/1, /*rank=*/0, "test.b"));
  for (Case& c : cases) {
    SCOPED_TRACE(c.what);
    FaultInjector fe(c.plan), fw(c.plan);
    Device eager(v100(), ExecMode::kModelOnly), walked(v100(), ExecMode::kModelOnly);
    eager.set_fault_injector(&fe);
    walked.set_fault_injector(&fw);
    eager.set_record_timeline(true);
    walked.set_record_timeline(true);
    ASSERT_TRUE(launch_prefill(eager));
    walked.begin_capture();
    ASSERT_TRUE(launch_prefill(walked));
    const StepGraph graph = walked.end_capture();
    ASSERT_TRUE(graph.valid);
    expect_same_charges(eager, walked);  // capture charges as eagerly

    for (int rep = 0; rep < 2; ++rep) {
      const auto [eager_done, walked_done] = run_eager_and_walked(eager, walked, graph, fe, fw);
      EXPECT_EQ(eager_done, walked_done);
      if (rep == 0) EXPECT_EQ(walked_done, c.finishes);
      expect_same_charges(eager, walked);
    }
    EXPECT_EQ(fe.kernel_spikes(), fw.kernel_spikes());
    EXPECT_EQ(fe.fired(FaultKind::kAllocFail), fw.fired(FaultKind::kAllocFail));
    EXPECT_EQ(fe.fired(FaultKind::kDeviceLoss), fw.fired(FaultKind::kDeviceLoss));
    // The walk launched nothing from the host, but charged every kernel
    // the eager device launched (the one a device loss failed included).
    EXPECT_EQ(walked.host_launches(), 7);
    EXPECT_EQ(walked.host_launches() + walked.walked_launches(), eager.host_launches());
    EXPECT_EQ(walked.stats().graph_replays, 0) << "an eager walk is not a replay";
  }
}

TEST(StepGraphTest, EagerWalkFailsAtTheSameAllocationAsTheArena) {
  // Fail the step's first allocation: the kernel before it ran, the walk
  // stops at the matching node, and a retry walks to the end.
  FaultPlan plan;
  plan.add(FaultPlan::alloc_fail(/*step=*/1, /*count=*/1, "prefill"));
  FaultInjector faults(plan);
  Device dev(v100(), ExecMode::kModelOnly);
  dev.set_fault_injector(&faults);
  dev.begin_capture();
  ASSERT_TRUE(launch_prefill(dev));
  const StepGraph graph = dev.end_capture();
  faults.arm(1);
  const int64_t launches = dev.stats().launches;
  const GraphNode* failed = dev.walk_eager(graph);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->kind, GraphNode::Kind::kAlloc);
  EXPECT_EQ(failed->alloc_bytes, 512);
  EXPECT_EQ(failed->range, "prefill");
  EXPECT_EQ(dev.stats().launches, launches + 1) << "only the kernel before it ran";
  EXPECT_EQ(dev.walk_eager(graph), nullptr);
  EXPECT_EQ(dev.stats().launches, launches + 8);
}

TEST(StepGraphTest, EagerWalkRejectsBadGraphsAndPhases) {
  Device dev(v100(), ExecMode::kModelOnly);
  EXPECT_THROW(dev.walk_eager(StepGraph{}), GraphError) << "never captured";

  dev.begin_capture();
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  (void)dev.enqueue_comm(20.0, "b0");
  const StepGraph comm = dev.end_capture();
  ASSERT_TRUE(comm.valid);
  const int64_t launches = dev.stats().launches;
  EXPECT_THROW(dev.walk_eager(comm), GraphError);
  EXPECT_EQ(dev.stats().launches, launches) << "nothing is charged before the rejection";

  dev.begin_capture();
  ASSERT_TRUE(launch_prefill(dev));
  const StepGraph graph = dev.end_capture();
  dev.begin_capture();
  EXPECT_THROW(dev.walk_eager(graph), Error) << "no walk inside a capture";
  dev.abort_graph();
  dev.begin_replay(graph);
  EXPECT_THROW(dev.walk_eager(graph), Error) << "no walk inside a replay";
  dev.abort_graph();
}

TEST(StepGraphTest, AlternatingWalksOfTwoGraphsAttributeCorrectly) {
  // Each graph keeps its own resolved stats slots; alternating walks (a
  // prefill walk between decode replays) and a reset() in between must all
  // land in the right per-kernel and range entries.
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  ASSERT_TRUE(launch_prefill(dev));
  const StepGraph prefill = dev.end_capture();
  const StepGraph decode = capture_step(dev);
  for (int round = 0; round < 2; ++round) {
    dev.reset();
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(dev.walk_eager(prefill), nullptr);
      dev.begin_replay(decode);
      ASSERT_EQ(dev.walk_replay(), nullptr);
      dev.end_replay();
    }
    EXPECT_EQ(dev.per_kernel().at("test.a").launches, 3 * 3 + 3);
    EXPECT_EQ(dev.per_kernel().at("test.b").launches, 3 * 3 + 3);
    EXPECT_EQ(dev.per_kernel().at("test.head").launches, 3);
    EXPECT_EQ(dev.stats().replayed_launches, 6);
    EXPECT_EQ(dev.walked_launches(), 3 * 7 + 3 * 2);
    EXPECT_EQ(dev.host_launches(), 0);
    // prefill: 3 x (1 + 2) + 3 us of kernels plus 7 launch gaps; decode:
    // 1 + 2 us, replayed back to back.
    const double gap = v100().launch_overhead_us;
    EXPECT_NEAR(dev.range_time_us("prefill"), 3 * (12.0 + 7 * gap), 1e-9);
    EXPECT_NEAR(dev.range_time_us("decode"), 3 * 3.0, 1e-9);
  }
}

}  // namespace
}  // namespace ls2::simgpu
