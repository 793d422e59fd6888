// Telemetry subsystem tests (DESIGN.md §12): streaming histogram quantiles
// vs the exact sort-based percentile, registry snapshots (JSON/Prometheus),
// roofline coverage of DeviceStats::busy_us, rolling SLO monitors,
// structured logging, and the metrics-snapshot golden contract (a seeded
// serving workload run twice produces byte-identical registry JSON).
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/lightseq2.h"
#include "obs/metrics.h"
#include "obs/roofline.h"
#include "obs/slo.h"

namespace ls2::obs {
namespace {

// ---------------------------------------------------------------------------
// exact_percentile + streaming histogram
// ---------------------------------------------------------------------------

TEST(MetricsTest, ExactPercentileSortsAndInterpolates) {
  EXPECT_EQ(exact_percentile({}, 0.5), 0.0);
  EXPECT_EQ(exact_percentile({7.0}, 0.99), 7.0);
  std::vector<double> v = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(exact_percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(exact_percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(exact_percentile(v, 0.5), 25.0);  // rank 1.5 of sorted
  EXPECT_NEAR(exact_percentile(v, 0.25), 17.5, 1e-12);
}

TEST(MetricsTest, HistogramQuantilesTrackExactWithinGrowthBound) {
  Histogram h;  // growth 1.02
  std::vector<double> samples;
  // Deterministic multiplicative stream spanning ~4 decades.
  double x = 3.0;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(x);
    h.record(x);
    x *= 1.0019;
    if (x > 5e4) x = 3.7;
  }
  ASSERT_EQ(h.count(), static_cast<int64_t>(samples.size()));
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact = exact_percentile(samples, q);
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, exact * 0.02)
        << "q=" << q << ": estimate outside the growth-factor error bound";
  }
  // The clamp makes the extremes exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), exact_percentile(samples, 0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), exact_percentile(samples, 1.0));
}

TEST(MetricsTest, HistogramUnderflowOverflowAndMerge) {
  HistogramConfig cfg;
  cfg.lo = 10.0;
  cfg.hi = 1000.0;
  cfg.growth = 1.5;
  Histogram a(cfg), b(cfg), all(cfg);
  for (double v : {0.5, 2.0, 50.0}) {
    a.record(v);
    all.record(v);
  }
  for (double v : {600.0, 5000.0, 9000.0}) {
    b.record(v);
    all.record(v);
  }
  EXPECT_EQ(a.buckets().front(), 2) << "values below lo land in the underflow bucket";
  EXPECT_EQ(b.buckets().back(), 2) << "values above hi land in the overflow bucket";
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 9000.0);
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0})
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "merge must equal single-stream";
  a.reset();
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.quantile(0.5), 0.0);
}

TEST(MetricsTest, HistogramQuantileOrderingIsMonotone) {
  Histogram h;
  for (int i = 1; i <= 300; ++i) h.record(static_cast<double>(i * i));
  double prev = -1;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(h.min(), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.max());
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, RegistryStableReferencesAndSnapshots) {
  MetricsRegistry reg;
  int64_t& c = reg.counter("serve.served_total");
  c += 3;
  reg.counter("serve.served_total") += 2;
  EXPECT_EQ(c, 5) << "counter reference must stay stable across lookups";
  reg.gauge("fleet.live_replicas") = 4.0;
  reg.histogram("serve.latency_us").record(120.0);
  reg.histogram("serve.latency_us").record(480.0);
  reg.set_label("replica", "2");

  EXPECT_TRUE(reg.has_counter("serve.served_total"));
  EXPECT_FALSE(reg.has_counter("nope"));
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"serve.served_total\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fleet.live_replicas\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"replica\":\"2\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("ls2_serve_served_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("ls2_fleet_live_replicas"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(prom.find("replica=\"2\""), std::string::npos);

  reg.clear();
  EXPECT_FALSE(reg.has_counter("serve.served_total"));
}

// ---------------------------------------------------------------------------
// Roofline profiler
// ---------------------------------------------------------------------------

/// Drive a device with a known kernel mix plus comm and non-kernel busy
/// time, so every partition term of busy_us is exercised.
void drive_device(simgpu::Device& dev) {
  simgpu::KernelDesc copy;  // memory-bound: no flops
  copy.name = "ls2.copy";
  copy.bytes_read = 8 << 20;
  copy.bytes_written = 8 << 20;
  simgpu::KernelDesc gemm;  // compute-bound tensor-core GEMM
  gemm.name = "ls2.gemm";
  gemm.bytes_read = 1 << 16;
  gemm.bytes_written = 1 << 16;
  gemm.flops = 4e12 * 1e-3;  // big enough to dominate its byte time
  gemm.tensor_core = true;
  for (int i = 0; i < 4; ++i) {
    dev.launch(copy, {});
    dev.launch(gemm, {});
  }
  const double done = dev.enqueue_comm(500.0, "allreduce");
  (void)done;
  dev.sync_comm("sync");                  // exposed comm (nothing overlaps it)
  dev.advance(123.0, /*busy=*/true, "other");  // busy advance outside kernels
}

TEST(RooflineTest, CoveragePartitionsBusyTimeExactly) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  drive_device(dev);

  MetricsRegistry reg;
  collect_device_metrics(reg, dev, "device");
  EXPECT_TRUE(reg.has_gauge("device.busy_us"));
  EXPECT_TRUE(reg.has_counter("device.kernel.ls2.gemm.launches"));

  const RooflineReport report = build_roofline(reg, dev.profile(), "device");
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_GT(report.busy_us, 0);
  EXPECT_NEAR(report.covered_us(), report.busy_us, report.busy_us * 1e-9)
      << "kernel + exposed comm + other must partition busy_us with no gap";
  EXPECT_GT(report.exposed_comm_us, 0);
  EXPECT_NEAR(report.other_busy_us, 123.0, 1e-6);

  // Sorted by exec time descending, utilization in (0, 1], bound classes.
  EXPECT_GE(report.entries[0].exec_us, report.entries[1].exec_us);
  for (const RooflineEntry& e : report.entries) {
    EXPECT_GT(e.utilization, 0.0) << e.family;
    EXPECT_LE(e.utilization, 1.0) << e.family;
    EXPECT_GT(e.share, 0.0);
    if (e.family == "ls2.copy") {
      EXPECT_FALSE(e.compute_bound);
      EXPECT_FALSE(e.tensor_core);
      EXPECT_NEAR(e.utilization, 0.80, 1e-9) << "mem_efficiency is the achieved fraction";
    } else {
      EXPECT_EQ(e.family, "ls2.gemm");
      EXPECT_TRUE(e.compute_bound);
      EXPECT_TRUE(e.tensor_core);
      EXPECT_NEAR(e.utilization, 0.70, 1e-9);
    }
  }

  const std::string table = format_roofline(report, 10);
  EXPECT_NE(table.find("ls2.gemm"), std::string::npos) << table;
  EXPECT_NE(table.find("ls2.copy"), std::string::npos);
  EXPECT_NE(table.find("exposed comm"), std::string::npos);
  EXPECT_NE(table.find("device busy"), std::string::npos);
}

TEST(RooflineTest, ReplayedLaunchesKeepTheCoverageIdentity) {
  // Under graph replay kernels charge exec time with no launch gaps; the
  // exec_us partition must hold exactly there too.
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  simgpu::KernelDesc k;
  k.name = "ls2.step";
  k.bytes_read = 1 << 20;
  k.bytes_written = 1 << 20;
  dev.begin_capture();
  dev.launch(k, {});
  const simgpu::StepGraph graph = dev.end_capture();
  ASSERT_TRUE(graph.valid) << graph.poison_reason;
  for (int i = 0; i < 5; ++i) {
    dev.begin_replay(graph);
    dev.launch(k, {});
    dev.end_replay();
  }
  const RooflineReport report = build_roofline(dev);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].launches, 6);
  EXPECT_NEAR(report.covered_us(), report.busy_us, 1e-9);
  EXPECT_NEAR(report.entries[0].exec_us, report.busy_us, 1e-9)
      << "pure-kernel run: family exec time IS the busy time";
}

// ---------------------------------------------------------------------------
// SLO monitor
// ---------------------------------------------------------------------------

TEST(SloTest, RollingWindowGaugesAndAging) {
  MetricsRegistry reg;
  SloConfig cfg;
  cfg.window_us = 800.0;
  cfg.slices = 4;
  SloMonitor mon(&reg, "serve", cfg);

  for (int i = 0; i < 10; ++i)
    mon.on_served(/*now=*/i * 50.0, /*latency=*/100.0 + 10.0 * i, /*tokens=*/2);
  mon.on_shed(500.0);
  mon.refresh(500.0);

  EXPECT_EQ(mon.window_served(), 10);
  EXPECT_EQ(mon.window_shed(), 1);
  EXPECT_GT(mon.p50_us(), 0);
  EXPECT_GE(mon.p99_us(), mon.p50_us());
  EXPECT_NEAR(mon.availability(), 10.0 / 11.0, 1e-12);
  EXPECT_NEAR(mon.shed_rate(), 1.0 - mon.availability(), 1e-12);
  EXPECT_GT(mon.tokens_per_s(), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.p50_us"), mon.p50_us());
  EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.availability"), mon.availability());
  EXPECT_EQ(reg.counter("serve.served_total"), 10);
  EXPECT_EQ(reg.counter("serve.shed_total"), 1);
  EXPECT_EQ(reg.counter("serve.tokens_total"), 20);

  // Far future: every slice has aged out; lifetime counters persist.
  mon.refresh(100000.0);
  EXPECT_EQ(mon.window_served(), 0);
  EXPECT_EQ(mon.window_shed(), 0);
  EXPECT_DOUBLE_EQ(mon.availability(), 1.0) << "empty window defaults to available";
  EXPECT_EQ(reg.counter("serve.served_total"), 10);
}

// The refresh re-merges only when an event arrived or the window moved a
// slice; every published number must still equal a from-scratch recompute
// over the raw events, including refreshes where slices only age out and
// refreshes right after the registry was cleared.
TEST(SloTest, CachedRefreshMatchesBruteForceRecompute) {
  SloConfig cfg;
  cfg.window_us = 800.0;
  cfg.slices = 4;
  const double slice_us = cfg.window_us / cfg.slices;

  struct Event {
    double t;
    bool served;
    double latency;
    int64_t tokens;
  };
  struct Expected {
    double p50 = 0, p99 = 0, tokens_per_s = 0, availability = 1.0;
    int64_t served = 0, shed = 0;
  };
  // Window state at `now` over all events so far (times never decrease, so
  // no slot is recycled while its slice is still in the window).
  auto brute = [&](const std::vector<Event>& ev, double now) {
    const int64_t now_index = static_cast<int64_t>(std::max(0.0, now) / slice_us);
    Histogram h(cfg.hist);
    Expected e;
    int64_t tokens = 0;
    for (size_t i = 0; i < ev.size(); ++i) {
      const int64_t idx = static_cast<int64_t>(std::max(0.0, ev[i].t) / slice_us);
      if (idx <= now_index - cfg.slices || idx > now_index) continue;
      if (ev[i].served) {
        h.record(ev[i].latency);
        ++e.served;
        tokens += ev[i].tokens;
      } else {
        ++e.shed;
      }
    }
    e.p50 = h.quantile(0.50);
    e.p99 = h.quantile(0.99);
    if (e.served + e.shed > 0)
      e.availability = static_cast<double>(e.served) / static_cast<double>(e.served + e.shed);
    double span = cfg.window_us;
    if (!ev.empty()) span = std::min(span, std::max(now - ev[0].t, slice_us));
    e.tokens_per_s = static_cast<double>(tokens) / (span / 1e6);
    return e;
  };

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    MetricsRegistry reg;
    SloMonitor mon(&reg, "serve", cfg);
    std::vector<Event> events;
    Expected at_refresh;  // what the monitor published last
    double clock = 0;
    auto check = [&](const Expected& e, const char* what, int op) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op << " " << what);
      EXPECT_EQ(mon.p50_us(), e.p50);
      EXPECT_EQ(mon.p99_us(), e.p99);
      EXPECT_EQ(mon.tokens_per_s(), e.tokens_per_s);
      EXPECT_EQ(mon.availability(), e.availability);
      EXPECT_EQ(mon.shed_rate(), 1.0 - e.availability);
      EXPECT_EQ(mon.window_served(), e.served);
      EXPECT_EQ(mon.window_shed(), e.shed);
    };
    size_t events_at_refresh = 0;
    int refreshes_without_events = 0, aging_without_events = 0;
    for (int op = 0; op < 600; ++op) {
      const uint64_t r = rng() % 100;
      if (r < 45) {
        clock += static_cast<double>(rng() % 120);
        const Event ev{clock, rng() % 8 != 0, 50.0 + static_cast<double>(rng() % 5000),
                       static_cast<int64_t>(rng() % 64)};
        events.push_back(ev);
        if (ev.served) {
          mon.on_served(ev.t, ev.latency, ev.tokens);
        } else {
          mon.on_shed(ev.t);
        }
        check(at_refresh, "event", op);  // events publish nothing until refresh
        continue;
      }
      // Refresh, sometimes with no new event since the last one, sometimes
      // far enough on that slices age out of the window, sometimes after
      // the registry was wiped.
      const bool no_events = events.size() == events_at_refresh;
      const double before = clock;
      if (r < 70) clock += static_cast<double>(rng() % 60);
      else if (r < 90) clock += slice_us * static_cast<double>(1 + rng() % 3);
      else clock += cfg.window_us * static_cast<double>(1 + rng() % 2);
      const bool ages = static_cast<int64_t>(clock / slice_us) !=
                        static_cast<int64_t>(before / slice_us);
      refreshes_without_events += no_events ? 1 : 0;
      aging_without_events += no_events && ages ? 1 : 0;
      if (rng() % 10 == 0) reg.clear();
      mon.refresh(clock);
      at_refresh = brute(events, clock);
      events_at_refresh = events.size();
      check(at_refresh, "refresh", op);
      EXPECT_EQ(reg.gauge("serve.slo.p50_us"), mon.p50_us());
      EXPECT_EQ(reg.gauge("serve.slo.p99_us"), mon.p99_us());
      EXPECT_EQ(reg.gauge("serve.slo.tokens_per_s"), mon.tokens_per_s());
      EXPECT_EQ(reg.gauge("serve.slo.availability"), mon.availability());
      EXPECT_EQ(reg.gauge("serve.slo.shed_rate"), mon.shed_rate());
    }
    EXPECT_GT(refreshes_without_events, 50) << "seed " << seed;
    EXPECT_GT(aging_without_events, 20) << "seed " << seed;
  }
}

// Events arrive out of order when a fleet merges completions from replicas
// whose clocks lag one another: one may land in an older slice, or recycle
// a ring slot the window still covers. The monitor records an in-window
// event straight into its merged window; every refresh must still equal a
// ring that applies the same slot recycling and re-merges every slice on
// every refresh.
TEST(SloTest, OutOfOrderEventsMatchARingRemergedOnEveryRefresh) {
  SloConfig cfg;
  cfg.window_us = 800.0;
  cfg.slices = 4;
  const double slice_us = cfg.window_us / cfg.slices;

  struct RefSlice {
    int64_t index = -1;
    std::vector<double> latencies;
    int64_t served = 0, shed = 0, tokens = 0;
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    MetricsRegistry reg;
    SloMonitor mon(&reg, "fleet", cfg);
    std::vector<RefSlice> ring(static_cast<size_t>(cfg.slices));
    double origin = -1;
    auto ref_slice = [&](double t) -> RefSlice& {
      const int64_t idx = static_cast<int64_t>(std::max(0.0, t) / slice_us);
      RefSlice& rs = ring[static_cast<size_t>(idx % cfg.slices)];
      if (rs.index != idx) rs = RefSlice{idx, {}, 0, 0, 0};
      if (origin < 0) origin = t;
      return rs;
    };
    double clock = 0;
    int out_of_order = 0, recycled_live = 0;
    for (int op = 0; op < 800; ++op) {
      const uint64_t r = rng() % 100;
      if (r < 55) {
        // Mostly near the clock, sometimes a slice or two behind it, rarely
        // older than the whole window.
        double t = clock - static_cast<double>(rng() % 40);
        const uint64_t lag = rng() % 10;
        if (lag < 2) t = clock - slice_us * static_cast<double>(1 + rng() % 3);
        if (lag == 2) t = clock - cfg.window_us * static_cast<double>(1 + rng() % 2);
        t = std::max(0.0, t);
        out_of_order += t < clock ? 1 : 0;
        const int64_t idx = static_cast<int64_t>(t / slice_us);
        const int64_t now_idx = static_cast<int64_t>(clock / slice_us);
        const RefSlice& slot = ring[static_cast<size_t>(idx % cfg.slices)];
        recycled_live += slot.index != idx && slot.index > now_idx - cfg.slices ? 1 : 0;
        if (rng() % 8 != 0) {
          const double latency = 50.0 + static_cast<double>(rng() % 5000);
          const int64_t tokens = static_cast<int64_t>(rng() % 64);
          mon.on_served(t, latency, tokens);
          RefSlice& rs = ref_slice(t);
          rs.latencies.push_back(latency);
          rs.served += 1;
          rs.tokens += tokens;
        } else {
          mon.on_shed(t);
          ref_slice(t).shed += 1;
        }
        continue;
      }
      if (r < 80) clock += static_cast<double>(rng() % 60);
      else if (r < 95) clock += slice_us * static_cast<double>(1 + rng() % 2);
      mon.refresh(clock);

      const int64_t now_index = static_cast<int64_t>(clock / slice_us);
      Histogram h(cfg.hist);
      int64_t served = 0, shed = 0, tokens = 0;
      for (const RefSlice& rs : ring) {
        if (rs.index <= now_index - cfg.slices || rs.index > now_index) continue;
        for (double v : rs.latencies) h.record(v);
        served += rs.served;
        shed += rs.shed;
        tokens += rs.tokens;
      }
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
      const double availability =
          served + shed > 0 ? static_cast<double>(served) / static_cast<double>(served + shed)
                            : 1.0;
      double span = cfg.window_us;
      if (origin >= 0) span = std::min(span, std::max(clock - origin, slice_us));
      EXPECT_EQ(reg.gauge("fleet.slo.p50_us"), h.quantile(0.50));
      EXPECT_EQ(reg.gauge("fleet.slo.p99_us"), h.quantile(0.99));
      EXPECT_EQ(reg.gauge("fleet.slo.availability"), availability);
      EXPECT_EQ(reg.gauge("fleet.slo.shed_rate"), 1.0 - availability);
      EXPECT_EQ(reg.gauge("fleet.slo.tokens_per_s"),
                static_cast<double>(tokens) / (span / 1e6));
      EXPECT_EQ(mon.window_served(), served);
      EXPECT_EQ(mon.window_shed(), shed);
    }
    EXPECT_GT(out_of_order, 100) << "seed " << seed;
    EXPECT_GT(recycled_live, 5) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------------

std::vector<std::string>& captured_lines() {
  static std::vector<std::string> lines;
  return lines;
}

void capture_sink(LogLevel, const std::string& line) { captured_lines().push_back(line); }

TEST(LoggingTest, StructuredFieldsAndThreadIdentity) {
  captured_lines().clear();
  set_log_sink(&capture_sink);
  const LogLevel old = log_level();
  set_log_level(LogLevel::kDebug);
  set_log_identity("replica2");
  LS2_LOG(kInfo) << "hedge fired" << log_kv("req", 17).kv("to_replica", 1);
  set_log_identity("");
  LS2_LOG(kWarn) << "plain message";
  set_log_level(old);
  set_log_sink(nullptr);

  ASSERT_EQ(captured_lines().size(), 2u);
  EXPECT_EQ(captured_lines()[0], "[LS2:I] [replica2] hedge fired req=17 to_replica=1");
  EXPECT_EQ(captured_lines()[1], "[LS2:W] plain message");
}

// ---------------------------------------------------------------------------
// Metrics-snapshot golden test: a seeded serving workload produces a
// byte-identical registry snapshot on every run.
// ---------------------------------------------------------------------------

std::string serve_snapshot() {
  using namespace ls2::infer;
  models::Gpt2Config cfg;
  cfg.vocab = 48;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.max_len = 32;
  const int64_t slots = 2, max_len = 24;

  MetricsRegistry reg;
  core::SessionConfig sc;
  sc.system = layers::System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.arena_bytes = serve_capacity_scan(cfg, DType::kF32, slots, max_len, 8);
  sc.metrics = &reg;
  core::Session s(sc);
  models::Gpt2 model(cfg, layers::System::kLightSeq2, DType::kF32, 17, s.param_alloc());
  KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  ContinuousBatcher engine(s, model, cache, {});
  const auto reqs =
      poisson_requests(8, /*rate=*/5000.0, /*prompt*/ 2, 6, /*gen*/ 3, 10, cfg.vocab, 71);
  const ServeReport report = engine.serve(reqs);
  EXPECT_EQ(report.served, 8);

  // Fold the device view in too — the full observable surface must be
  // deterministic, not just the serving counters.
  collect_device_metrics(reg, s.device(), "device");
  return reg.to_json();
}

TEST(GoldenTest, SeededServeWorkloadSnapshotsAreByteIdentical) {
  const std::string a = serve_snapshot();
  const std::string b = serve_snapshot();
  EXPECT_GT(a.size(), 100u);
  EXPECT_EQ(a, b) << "metrics snapshot must be deterministic run-to-run";
  EXPECT_NE(a.find("\"serve.served_total\":8"), std::string::npos) << a;
  EXPECT_NE(a.find("serve.slo.p50_us"), std::string::npos);
  EXPECT_NE(a.find("serve.latency_us"), std::string::npos);
  EXPECT_NE(a.find("device.busy_us"), std::string::npos);
}

}  // namespace
}  // namespace ls2::obs
