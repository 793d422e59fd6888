// Telemetry figure (DESIGN.md §12): the unified observability subsystem on
// real workloads.
//
//   [snapshot]  a training run and a serving run feed one MetricsRegistry;
//               the JSON snapshot carries both (plus the device scrape) and
//               is byte-identical across two seeded runs — the golden
//               contract, demonstrated here at bench scale.
//   [roofline]  the top-K kernel-family table built from REGISTRY DATA
//               ALONE (no simgpu access after the scrape), with the
//               coverage identity: sum of family exec time + exposed comm +
//               other busy time == DeviceStats::busy_us within 1%.
//   [overhead]  the same training steps with metrics enabled vs disabled:
//               the SIMULATED step time is identical (instrumentation is
//               host-side only, it never charges device time) and the HOST
//               wall-clock cost of recording stays under 1% of a step, with
//               95% confidence: blocks of steps with the registry attached
//               and detached alternate on one rig, and the gate is on the
//               upper confidence bound of the median paired overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/roofline.h"

namespace ls2::bench {
namespace {

std::vector<std::string> g_rows;

void push_row(const char* fmt, ...) {
  char buf[640];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  g_rows.emplace_back(buf);
}

void write_json() {
  std::filesystem::create_directories("bench");
  std::ofstream out("bench/fig_obs.json");
  out << "{\n  \"figure\": \"fig_obs\",\n  \"schema\": 1,\n  \"configs\": [";
  for (size_t i = 0; i < g_rows.size(); ++i)
    out << (i == 0 ? "\n    " : ",\n    ") << g_rows[i];
  out << "\n  ]\n}\n";
  std::printf("\nwrote %zu configs to bench/fig_obs.json\n", g_rows.size());
}

// ---------------------------------------------------------------------------
// Shared workloads
// ---------------------------------------------------------------------------

struct TrainRun {
  double sim_us = 0;      ///< simulated device time of the measured steps
  double host_us = 0;     ///< host wall-clock of the measured steps
};

SessionConfig train_session_config(obs::MetricsRegistry* reg, uint64_t seed) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.seed = seed;
  sc.metrics = reg;
  return sc;
}

/// Steady-state MT training (model-only, overlapped 4-GPU DP), optionally
/// feeding `reg`. The registry pointer is the ONLY difference between the
/// enabled and disabled arms of the overhead measurement.
class TrainRig {
 public:
  TrainRig(obs::MetricsRegistry* reg, uint64_t seed)
      : session_(train_session_config(reg, seed)),
        cfg_(models::TransformerConfig::base(6, 6)),
        model_(cfg_, System::kLightSeq2, DType::kF16, seed),
        trainer_(model_.params(), optim::OptimConfig{}),
        batches_(data::make_mt_batches(data::MtDataset(cfg_.vocab, 64, 10, 40, seed), 4096,
                                       DType::kF16)) {
    cluster_.overlap = true;
    (void)run(1);  // warm-up
  }

  /// Runs `steps` training steps and times them.
  TrainRun run(int steps) {
    const models::MtBatch& batch = data::largest_batch(batches_);
    TrainRun r;
    const double sim0 = session_.device().clock_us();
    const auto host0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i)
      (void)core::train_step(session_, model_, batch, trainer_, cluster_);
    r.host_us = std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                          host0)
                    .count();
    r.sim_us = session_.device().clock_us() - sim0;
    return r;
  }

  Session& session() { return session_; }

 private:
  Session session_;
  models::TransformerConfig cfg_;
  models::Transformer model_;
  optim::LightSeq2Trainer trainer_;
  std::vector<models::MtBatch> batches_;
  dist::ClusterConfig cluster_{4, 1};
};

/// `steps` timed steps on a fresh rig; with a registry, the device scrape
/// is added at the end.
TrainRun run_train(obs::MetricsRegistry* reg, int steps, uint64_t seed = 17) {
  TrainRig rig(reg, seed);
  const TrainRun run = rig.run(steps);
  if (reg) obs::collect_device_metrics(*reg, rig.session().device(), "device");
  return run;
}

/// A seeded serving run feeding `reg` under the "serve" prefix; returns the
/// report for the printed summary.
infer::ServeReport run_serve(obs::MetricsRegistry& reg, uint64_t seed = 23) {
  models::Gpt2Config cfg;
  cfg.vocab = 512;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.ffn_dim = 128;
  cfg.layers = 4;
  cfg.max_len = 128;
  const int64_t slots = 4, max_len = 96;
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.arena_bytes = infer::serve_capacity_scan(cfg, DType::kF16, slots, max_len, 16);
  sc.graph_capture = true;
  sc.metrics = &reg;
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF16, 31, s.param_alloc());
  infer::KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  infer::ContinuousBatcher engine(s, model, cache, {});
  const auto reqs = infer::poisson_requests(64, /*rate=*/8000.0, 4, 12, 8, 24,
                                            cfg.vocab, seed);
  return engine.serve(reqs);
}

// ---------------------------------------------------------------------------
// Section 1: unified snapshot (training + serving + device scrape)
// ---------------------------------------------------------------------------

void bench_snapshot() {
  print_header("Unified metrics snapshot: training + serving in one registry");
  auto snapshot = [](uint64_t seed) {
    obs::MetricsRegistry reg;
    (void)run_train(&reg, /*steps=*/3, seed);
    (void)run_serve(reg, seed + 6);
    return reg.to_json();
  };
  const std::string a = snapshot(17);
  const std::string b = snapshot(17);
  const bool identical = a == b;

  // Re-load the snapshot's quantiles for the schema sanity row. Registry
  // state is re-derived (not parsed from JSON) on a third identical run.
  obs::MetricsRegistry reg;
  (void)run_train(&reg, 3, 17);
  const infer::ServeReport serve = run_serve(reg, 23);
  const obs::Histogram& lat = reg.histograms().at("serve.latency_us");
  const obs::Histogram& step = reg.histograms().at("train.step_us");
  std::printf("snapshot bytes             %zu\n", a.size());
  std::printf("byte-identical re-run      %s\n", identical ? "yes" : "NO");
  std::printf("train.step_us p50/p99      %.1f / %.1f us over %lld steps\n",
              step.quantile(0.5), step.quantile(0.99),
              static_cast<long long>(step.count()));
  std::printf("serve.latency_us p50/p99   %.1f / %.1f us over %lld served\n",
              lat.quantile(0.5), lat.quantile(0.99),
              static_cast<long long>(lat.count()));
  std::printf("serve availability         %.3f\n",
              reg.gauges().at("serve.slo.availability"));
  push_row("{\"section\": \"snapshot\", \"snapshot_bytes\": %zu, "
           "\"identical_rerun\": %s, \"served\": %lld, "
           "\"latency_count\": %lld, \"latency_min_us\": %.3f, "
           "\"latency_p50_us\": %.3f, \"latency_p99_us\": %.3f, "
           "\"latency_max_us\": %.3f, \"step_p50_us\": %.3f, "
           "\"step_p99_us\": %.3f, \"availability\": %.4f}",
           a.size(), identical ? "true" : "false",
           static_cast<long long>(serve.served),
           static_cast<long long>(lat.count()), lat.min(), lat.quantile(0.5),
           lat.quantile(0.99), lat.max(), step.quantile(0.5),
           step.quantile(0.99), reg.gauges().at("serve.slo.availability"));
}

// ---------------------------------------------------------------------------
// Section 2: roofline from registry data alone
// ---------------------------------------------------------------------------

void bench_roofline() {
  print_header("Roofline: top kernel families vs device peaks (from the registry)");
  obs::MetricsRegistry reg;
  (void)run_train(&reg, /*steps=*/3, 17);
  // Everything below reads ONLY the registry — the device is gone.
  const obs::RooflineReport report =
      obs::build_roofline(reg, simgpu::v100(), "device");
  std::printf("%s\n", obs::format_roofline(report, 8).c_str());

  const double coverage =
      report.busy_us > 0 ? report.covered_us() / report.busy_us : 0.0;
  size_t k = 0;
  for (const obs::RooflineEntry& e : report.entries) {
    if (k++ >= 8) break;
    push_row("{\"section\": \"roofline\", \"family\": \"%s\", "
             "\"launches\": %lld, \"exec_us\": %.3f, \"share\": %.4f, "
             "\"achieved_gb_s\": %.1f, \"achieved_tflops\": %.3f, "
             "\"utilization\": %.4f, \"compute_bound\": %s, "
             "\"tensor_core\": %s}",
             e.family.c_str(), static_cast<long long>(e.launches), e.exec_us,
             e.share, e.achieved_gb_s, e.achieved_tflops, e.utilization,
             e.compute_bound ? "true" : "false",
             e.tensor_core ? "true" : "false");
  }
  push_row("{\"section\": \"roofline_coverage\", \"families\": %zu, "
           "\"kernel_us\": %.3f, \"exposed_comm_us\": %.3f, "
           "\"other_busy_us\": %.3f, \"busy_us\": %.3f, \"coverage\": %.6f}",
           report.entries.size(), report.kernel_us, report.exposed_comm_us,
           report.other_busy_us, report.busy_us, coverage);
}

// ---------------------------------------------------------------------------
// Section 3: instrumentation overhead
// ---------------------------------------------------------------------------

void bench_overhead() {
  print_header("Instrumentation overhead: metrics enabled vs disabled");
  // Simulated time: two identical fresh rigs, metrics on vs off, must match
  // EXACTLY (the instrumentation never touches the device clock).
  constexpr int kSimSteps = 20;
  obs::MetricsRegistry reg;
  TrainRig rig(&reg, 17);
  const double sim_on = rig.run(kSimSteps).sim_us;
  const double sim_off = TrainRig(nullptr, 17).run(kSimSteps).sim_us;
  const double sim_delta_us = sim_on - sim_off;

  // Host time: blocks of steps on the one rig, its registry attached and
  // detached in an order that alternates between blocks, so drift and warm
  // caches fall on both arms alike. Host noise here is heavy-tailed (a
  // preempted block reads tens of percent slow), so the estimate is the
  // median paired overhead and the gate its distribution-free one-sided 95%
  // upper confidence bound: the u-th smallest of n paired differences, with
  // u the least index such that P(Binomial(n, 1/2) < u) >= 0.95.
  constexpr int kBlocks = 400, kBlockSteps = 25;
  const auto timed = [&](obs::MetricsRegistry* r) {
    rig.session().set_metrics(r);
    return rig.run(kBlockSteps).host_us;
  };
  double host_on = 0, host_off = 0;
  std::vector<double> rel(kBlocks);  // per-block (on - off) / off
  for (int b = 0; b < kBlocks; ++b) {
    double on, off;
    if (b % 2 == 0) {
      on = timed(&reg);
      off = timed(nullptr);
    } else {
      off = timed(nullptr);
      on = timed(&reg);
    }
    rel[static_cast<size_t>(b)] = (on - off) / off;
    host_on += on;
    host_off += off;
  }
  std::sort(rel.begin(), rel.end());
  size_t u = 0;
  double below = 0;  // P(Binomial(kBlocks, 1/2) < u)
  double pmf = std::pow(0.5, kBlocks);
  for (; u < rel.size() && below < 0.95; ++u) {
    below += pmf;
    pmf *= static_cast<double>(kBlocks - static_cast<int>(u)) / static_cast<double>(u + 1);
  }
  const double overhead_pct = (rel[kBlocks / 2 - 1] + rel[kBlocks / 2]) / 2 * 100.0;
  const double overhead_pct_ucb = rel[u - 1] * 100.0;
  const int steps = kBlocks * kBlockSteps;
  std::printf("simulated step time        %.3f us (enabled) vs %.3f us (disabled)"
              " -> delta %.6f us\n",
              sim_on / kSimSteps, sim_off / kSimSteps, sim_delta_us);
  std::printf("host wall per step         %.1f us (enabled) vs %.1f us (disabled)\n",
              host_on / steps, host_off / steps);
  std::printf("host overhead              median %.3f%% of a step, 95%% upper bound "
              "%.3f%% over %d paired blocks (budget: < 1%%)\n",
              overhead_pct, overhead_pct_ucb, kBlocks);
  push_row("{\"section\": \"overhead\", \"steps\": %d, \"blocks\": %d, "
           "\"sim_step_us_enabled\": %.6f, \"sim_step_us_disabled\": %.6f, "
           "\"sim_delta_us\": %.6f, \"host_step_us_enabled\": %.3f, "
           "\"host_step_us_disabled\": %.3f, \"overhead_pct\": %.4f, "
           "\"overhead_pct_ucb\": %.4f}",
           steps, kBlocks, sim_on / kSimSteps, sim_off / kSimSteps, sim_delta_us,
           host_on / steps, host_off / steps, overhead_pct, overhead_pct_ucb);
}

}  // namespace
}  // namespace ls2::bench

int main() {
  return ls2::bench::guarded_main("fig_obs", [] {
    ls2::bench::bench_snapshot();
    ls2::bench::bench_roofline();
    ls2::bench::bench_overhead();
    ls2::bench::write_json();
    return 0;
  });
}
