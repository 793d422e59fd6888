// perfbench: the repository benchmark program (see perfbench/README.md).
//
//   perfbench --workload <mt_big_3d|mt_small_exec|gpt2_serve_fleet>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//             [--rate <req/s>]
//
// Every workload is a fixed, seed-generated schedule (training steps or
// serving requests) whose simulated-clock metrics are a pure function of the
// seed, followed — with --trace 0 — by more host-timed repetitions until
// --seconds of timed work have run. --trace 1 runs the schedule twice: once
// untraced (host numbers) and once with the device timeline and a metrics
// registry attached (simulated per-layer numbers), checks that every
// simulated number is identical between the two, and writes the traces.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Every metric name is printed for every workload; a per-layer metric that
// does not apply to a workload reads 0.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/lightseq2.h"

namespace {

using namespace ls2;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Arguments, host record
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  double rate = 0;  ///< gpt2_serve_fleet offered load; 0 = the workload's own
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    LS2_CHECK(i + 1 < argc) << "missing value for " << k;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--rate") a.rate = std::stod(v);
    else LS2_CHECK(false) << "unknown argument " << k;
  }
  LS2_CHECK(a.seconds > 0) << "--seconds must be positive";
  return a;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string num(double v) {
  LS2_CHECK(std::isfinite(v)) << "non-finite metric value";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// nproc, the library's worker-thread count, CPU model, compiler and build
/// type. A thread count above nproc would oversubscribe the cores and is
/// refused.
std::string host_record() {
  cpu_set_t set;
  CPU_ZERO(&set);
  LS2_CHECK(sched_getaffinity(0, sizeof(set), &set) == 0) << "sched_getaffinity failed";
  const int nproc = CPU_COUNT(&set);
  const int threads = parallel_thread_count();
  LS2_CHECK(threads <= nproc) << "parallel_thread_count() = " << threads
                              << " exceeds nproc = " << nproc;
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream o;
  o << "{\"nproc\": " << nproc << ", \"parallel_thread_count\": " << threads
    << ", \"cpu\": \"" << json_escape(cpu) << "\", \"compiler\": \""
    << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\"}";
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return obs::exact_percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Benchmark-side spans: one around each call the benchmark makes into a
// layer, kept in memory and written once at the end of a traced run.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start_s = 0, end_s = 0;
  int parent = -1;
  int64_t id = -1;  ///< step or request id, -1 when none
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  int open(std::string name, int64_t id) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), now_s(), 0, stack_.empty() ? -1 : stack_.back(), id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_s = now_s();
    stack_.pop_back();
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    LS2_CHECK(out.good()) << "cannot open " << path;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\""
          << json_escape(s.name) << "\",\"ts\":" << num(s.start_s * 1e6)
          << ",\"dur\":" << num((s.end_s - s.start_s) * 1e6) << ",\"args\":{\"span\":" << i
          << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Host-timed span: always measures, records into the tracer when it is on.
class Span {
 public:
  Span(Tracer& tr, std::string name, int64_t id = -1)
      : tr_(tr), idx_(tr.open(std::move(name), id)), t0_(Clock::now()) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Close the span (idempotent); returns its host seconds.
  double stop() {
    if (!done_) {
      secs_ = std::chrono::duration<double>(Clock::now() - t0_).count();
      tr_.close(idx_);
      done_ = true;
    }
    return secs_;
  }

 private:
  Tracer& tr_;
  int idx_;
  Clock::time_point t0_;
  bool done_ = false;
  double secs_ = 0;
};

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_tokens_per_s", "tokens/s"},
    {"host_tokens_per_s", "tokens/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"token_time_p50_us", "us"},
    {"token_time_p99_us", "us"},
    {"host_peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"core.session_s", "s"},
    {"models.build_s", "s"},
    {"optim.build_s", "s"},
    {"memory.capacity_scan_s", "s"},
    {"infer.fleet_build_s", "s"},
    {"core.step_host_ms_p50", "ms"},
    {"core.step_host_ms_p99", "ms"},
    {"core.train_loss", "loss/token"},
    {"gemm.host_gflops", "GFLOP/s"},
    {"simgpu.host_us_per_launch", "us"},
    {"infer.host_us_per_decode_step", "us"},
    {"models.forward_us", "us"},
    {"models.backward_us", "us"},
    {"gemm.exec_us", "us"},
    {"gemm.flops", "flop"},
    {"kernels.exec_us", "us"},
    {"kernels.bytes", "bytes"},
    {"kernels.launches", "count"},
    {"optim.update_us", "us"},
    {"optim.update_overlapped_us", "us"},
    {"simgpu.launch_gap_us", "us"},
    {"simgpu.utilization", "fraction"},
    {"simgpu.graph_launch_us", "us"},
    {"infer.replayed_frac", "fraction"},
    {"dist.sync_exposed_us", "us"},
    {"dist.sync_hidden_us", "us"},
    {"dist.tp_exposed_us", "us"},
    {"dist.pp_bubble_us", "us"},
    {"dist.pp_exposed_us", "us"},
    {"dist.wire_bytes", "bytes"},
    {"dist.tp_bytes", "bytes"},
    {"memory.peak_mb", "MB"},
    {"memory.activation_peak_mb", "MB"},
    {"memory.permanent_mb", "MB"},
    {"memory.alloc_stall_us", "us"},
    {"memory.alloc_events", "count"},
    {"infer.queue_p50_ms", "ms"},
    {"infer.queue_p99_ms", "ms"},
    {"infer.prefills", "count"},
    {"infer.prefill_us", "us"},
    {"infer.shared_page_hit_frac", "fraction"},
    {"infer.decode_steps", "count"},
    {"infer.decode_us", "us"},
    {"infer.preemptions", "count"},
    {"infer.cow_copies", "count"},
    {"infer.peak_pages_used", "count"},
    {"infer.redispatches", "count"},
    {"bench.trace_overhead_frac", "fraction"},
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, printed to stderr
  std::map<std::string, double> m;    ///< every metric this run measured
  std::map<std::string, double> info; ///< context printed on the "info:" line

  void fail(const std::string& why, int64_t count = 1) {
    failed += count;
    if (problems.size() < 20) problems.push_back(why);
  }
  /// The result line: end-to-end metrics untraced, per-layer metrics traced.
  std::string line(bool trace) const {
    std::ostringstream o;
    o << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    const auto& names = trace ? kPerLayer : kEndToEnd;
    for (size_t i = 0; i < names.size(); ++i) {
      auto it = m.find(names[i].first);
      const double v = it == m.end() ? 0.0 : it->second;
      o << (i ? ", " : "") << "\"" << names[i].first << "\": {\"value\": " << num(v)
        << ", \"unit\": \"" << names[i].second << "\"}";
    }
    o << "}}";
    return o.str();
  }
};

// ---------------------------------------------------------------------------
// Device-counter deltas over a window of steps
// ---------------------------------------------------------------------------

struct DeviceWindow {
  simgpu::DeviceStats stats;
  std::map<std::string, simgpu::KernelStats> kernels;
  static DeviceWindow of(const simgpu::Device& d) { return {d.stats(), d.per_kernel()}; }
};

/// The gemm module marks its FP16 launches tensor-core and no other kernel
/// does; every training workload here is FP16.
bool is_gemm(const simgpu::KernelStats& k) { return k.tensor_core; }

/// Per-step device metrics between two snapshots (per_layer names).
void device_layer_metrics(const DeviceWindow& a, const DeviceWindow& b, double steps,
                          Result& r) {
  double gemm_us = 0, gemm_flops = 0, k_us = 0, k_bytes = 0, k_launches = 0;
  for (const auto& [name, kb] : b.kernels) {
    simgpu::KernelStats ka;
    if (auto it = a.kernels.find(name); it != a.kernels.end()) ka = it->second;
    if (is_gemm(kb)) {
      gemm_us += kb.exec_us - ka.exec_us;
      gemm_flops += kb.flops - ka.flops;
    } else {
      k_us += kb.exec_us - ka.exec_us;
      k_bytes += static_cast<double>(kb.bytes - ka.bytes);
      k_launches += static_cast<double>(kb.launches - ka.launches);
    }
  }
  r.m["gemm.exec_us"] = gemm_us / steps;
  r.m["gemm.flops"] = gemm_flops / steps;
  r.m["kernels.exec_us"] = k_us / steps;
  r.m["kernels.bytes"] = k_bytes / steps;
  r.m["kernels.launches"] = k_launches / steps;
  const double busy = b.stats.busy_us - a.stats.busy_us;
  const double idle = b.stats.overhead_us - a.stats.overhead_us;
  r.m["simgpu.launch_gap_us"] = (b.stats.launch_gap_us - a.stats.launch_gap_us) / steps;
  r.m["simgpu.graph_launch_us"] = (b.stats.graph_launch_us - a.stats.graph_launch_us) / steps;
  r.m["simgpu.utilization"] = busy + idle > 0 ? busy / (busy + idle) : 0;
}

// ---------------------------------------------------------------------------
// Training workloads
// ---------------------------------------------------------------------------

struct TrainSpec {
  models::TransformerConfig model;
  simgpu::ExecMode mode = simgpu::ExecMode::kModelOnly;
  dist::ClusterConfig cluster;
  int64_t batch_tokens = 4096;  ///< target-token budget per DP replica
  int64_t min_len = 4, max_len = 96;
  int64_t steps = 32;           ///< the seed's fixed schedule
  /// >0: train for epochs over a corpus of this many batches instead of a
  /// fresh batch per step.
  int64_t corpus_batches = 0;
  /// Keep a seeded 75-100% of each batch's rows (see make_schedule).
  bool trim_rows = false;
  /// Passes (fresh rigs) one process may run, and the schedule prefix the
  /// traced run covers. See the known defect in README.md: under PP every
  /// step leaks remote-stage device blocks, and a process that runs more
  /// than about 1600 steps fails.
  int max_passes = 1000;
  int64_t trace_steps = 1000;
  int setups = 3;               ///< set-up repetitions behind setup_s
};

const uint64_t kModelSeed = 17;
/// Training steps (after the warm-up) whose kernels the device timeline keeps.
const size_t kTimelineSteps = 4;

/// Rows [0, rows) of an MT batch (PP slices microbatches along dim 0).
models::MtBatch take_rows(const models::MtBatch& big, int64_t rows) {
  models::MtBatch b = big;
  b.src_ids = big.src_ids.slice(0, rows);
  b.tgt_in = big.tgt_in.slice(0, rows);
  b.tgt_out = big.tgt_out.slice(0, rows);
  b.src_lens = big.src_lens.slice(0, rows);
  b.tgt_lens = big.tgt_lens.slice(0, rows);
  int64_t tokens = 0;
  const int32_t* lens = b.tgt_lens.data<int32_t>();
  for (int64_t i = 0; i < rows; ++i) tokens += lens[i];
  b.tokens = tokens;
  return b;
}

/// The seed's batches: token-budget batches of a seeded MtDataset in a
/// seeded order, rows trimmed to a multiple of the microbatch count. The
/// length-sorted packing gives most batches of one length the same shape;
/// with trim_rows each batch keeps a seeded 75, 83, 92 or 100% of its rows,
/// so no order statistic of a long schedule's step times is pinned to one
/// shape. (Continuous fractions spread host time and RSS more across seeds.)
std::vector<models::MtBatch> make_schedule(const TrainSpec& spec, uint64_t seed) {
  const int64_t m = std::max(1, spec.cluster.microbatches);
  // Enough sentences for `steps` budget-sized batches plus slack; the
  // dataset's median length is (min_len + max_len) / 3.
  const int64_t sentences =
      spec.steps * spec.batch_tokens * 3 / 2 / ((spec.min_len + spec.max_len) / 3) + 256;
  data::MtDataset ds(spec.model.vocab, sentences, spec.min_len, spec.max_len, seed);
  auto all = data::make_mt_batches(ds, spec.batch_tokens, DType::kF16,
                                   layers::policy_for(layers::System::kLightSeq2).seq_multiple);
  // Skip the partial batches at the end of each length bucket.
  std::erase_if(all,
                [&](const models::MtBatch& b) { return b.tokens * 10 < spec.batch_tokens * 9; });
  LS2_CHECK_GE(static_cast<int64_t>(all.size()), spec.steps + 1)
      << "dataset too small for the schedule";
  std::mt19937_64 g(seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t i = all.size(); i > 1; --i) std::swap(all[i - 1], all[g() % i]);
  if (spec.corpus_batches > 0) {
    // A small corpus trains on typical batches: those whose padded target
    // length is closest to the median, so one seed's corpus is not all long
    // or all short sentences.
    std::vector<int64_t> lens;
    for (const auto& b : all) lens.push_back(b.tgt_in.shape()[1]);
    std::nth_element(lens.begin(), lens.begin() + static_cast<long>(lens.size() / 2), lens.end());
    const int64_t mid = lens[lens.size() / 2];
    std::stable_sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
      return std::abs(a.tgt_in.shape()[1] - mid) < std::abs(b.tgt_in.shape()[1] - mid);
    });
  }
  std::vector<models::MtBatch> out;  // [0] is the warm-up step
  for (int64_t i = 0; i <= spec.steps; ++i) {
    const models::MtBatch& b = all[static_cast<size_t>(i)];
    const double keep = spec.trim_rows ? 0.75 + 0.25 * static_cast<double>(g() % 4) / 3 : 1.0;
    const int64_t rows = static_cast<int64_t>(static_cast<double>(b.src_ids.shape()[0]) * keep);
    out.push_back(take_rows(b, std::max(m, rows / m * m)));
  }
  if (spec.corpus_batches > 0) {
    const size_t k = static_cast<size_t>(spec.corpus_batches);
    for (size_t i = k; i < out.size(); ++i) out[i] = out[i % k];
  }
  return out;
}

/// The batches the arena's capacity scan probes: the largest by padded
/// tokens (data::largest_batch) and the largest by each attention-score
/// extent (rows x Ls^2, rows x Lt^2, rows x Lt x Ls), which peak on
/// long-sentence batches instead. Always four probes, even when one batch
/// wins twice, so that set-up does the same work for every seed.
std::vector<const models::MtBatch*> probe_batches(const std::vector<models::MtBatch>& b) {
  std::vector<const models::MtBatch*> out = {&data::largest_batch(b)};
  for (int k = 0; k < 3; ++k) {
    const models::MtBatch* best = nullptr;
    int64_t best_v = -1;
    for (const models::MtBatch& x : b) {
      const int64_t rows = x.src_ids.shape()[0], ls = x.src_ids.shape()[1],
                    lt = x.tgt_in.shape()[1];
      const int64_t v = rows * (k == 0 ? ls * ls : k == 1 ? lt * lt : lt * ls);
      if (v > best_v) best_v = v, best = &x;
    }
    out.push_back(best);
  }
  return out;
}

/// Everything one training run owns, built in the order of its set-up spans
/// (and destroyed in reverse: the session points at the process group).
struct TrainRig {
  std::unique_ptr<dist::ProcessGroup> pg;
  std::unique_ptr<core::Session> session;
  std::unique_ptr<models::Transformer> model;
  std::unique_ptr<optim::Optimizer> trainer;
  double setup_s = 0;
  std::map<std::string, double> parts;  ///< per-layer set-up seconds
};

TrainRig build_rig(const TrainSpec& spec, const std::vector<const models::MtBatch*>& probes,
                   Tracer& tr, bool device_trace, obs::MetricsRegistry* reg) {
  TrainRig rig;
  Span all(tr, "setup");
  const int tp = spec.cluster.tensor_parallel;
  models::TransformerConfig cfg = spec.model;
  cfg.tp.size = tp;
  cfg.tp.simulate_peers = false;
  if (tp > 1) rig.pg = std::make_unique<dist::ProcessGroup>(spec.cluster);

  core::SessionConfig sc;
  sc.system = layers::System::kLightSeq2;
  sc.profile = simgpu::a100();
  sc.mode = spec.mode;
  sc.dtype = DType::kF16;
  sc.seed = kModelSeed;
  sc.record_timeline = device_trace;
  sc.metrics = reg;
  {
    Span s(tr, "memory.capacity_scan");
    core::CapacityScanOptions opt;
    opt.profile = sc.profile;
    opt.seed = kModelSeed;
    opt.tp_group = rig.pg.get();
    for (const models::MtBatch* b : probes) {
      sc.arena_bytes = std::max(
          sc.arena_bytes,
          core::capacity_scan(
              [&](BufferAllocator* alloc) {
                return std::make_unique<models::Transformer>(cfg, sc.system, DType::kF16,
                                                             kModelSeed, alloc);
              },
              *b, opt));
    }
    rig.parts["memory.capacity_scan_s"] = s.stop();
  }
  {
    Span s(tr, "core.session");
    rig.session = std::make_unique<core::Session>(sc);
    if (rig.pg) rig.session->ctx().tp_group = rig.pg.get();
    rig.parts["core.session_s"] = s.stop();
  }
  {
    Span s(tr, "models.build");
    rig.model = std::make_unique<models::Transformer>(cfg, sc.system, DType::kF16,
                                                      kModelSeed,
                                                      rig.session->param_alloc());
    rig.parts["models.build_s"] = s.stop();
  }
  {
    Span s(tr, "optim.build");
    optim::OptimConfig oc;
    oc.lr = 5e-3f;
    oc.scaler.init_scale = 1024.0f;
    oc.dynamic_loss_scale = true;  // FP16 mixed precision
    rig.trainer = optim::make_trainer(sc.system, rig.model->params(), oc,
                                      rig.session->param_alloc());
    rig.parts["optim.build_s"] = s.stop();
  }
  rig.setup_s = all.stop();
  return rig;
}

/// One executed training step as the benchmark saw it.
struct StepRecord {
  core::StepTimes t;
  double sim_us = 0;  ///< simulated step time (StepTimes::total_us)
  double host_s = 0;  ///< host time of the train_step call
  int64_t tokens = 0; ///< rank-0 target tokens
  double loss = 0;    ///< loss per token (meaningful in kExecute only)
  bool operator==(const StepRecord& o) const {
    return sim_us == o.sim_us && tokens == o.tokens &&
           (std::isnan(loss) ? std::isnan(o.loss) : loss == o.loss) &&
           t.total_us() == o.t.total_us() && t.sync_overlapped_us == o.t.sync_overlapped_us &&
           t.wire_bytes == o.t.wire_bytes && t.tp_bytes == o.t.tp_bytes;
  }
};

/// Run one step and check it: no exception (OOM included), stages summing
/// to the device-clock advance, and — when kernels execute — a finite loss.
std::optional<StepRecord> run_step(const TrainSpec& spec, TrainRig& rig,
                                   const models::MtBatch& batch, int64_t id, Tracer& tr,
                                   Result& res) {
  ++res.attempted;
  StepRecord rec;
  rec.tokens = batch.tokens;
  auto& dev = rig.session->device();
  const double c0 = dev.clock_us();
  try {
    Span s(tr, "core.train_step", id);
    auto [times, out] =
        core::train_step(*rig.session, *rig.model, batch, *rig.trainer, spec.cluster);
    rec.host_s = s.stop();
    rec.t = times;
    rec.loss = out.loss_per_token();
  } catch (const std::exception& e) {
    res.fail(std::string("step ") + std::to_string(id) + " threw: " + e.what());
    return std::nullopt;
  }
  // The step's simulated time is its four stages (plus, under PP, the
  // rank-0 1F1B lane's bubble and exposed p2p).
  rec.sim_us = rec.t.total_us();
  const double clock_us = dev.clock_us() - c0;
  const std::string at = "step " + std::to_string(id) + ": ";
  if (spec.cluster.pipeline_parallel == 1) {
    // One device runs the whole step: the stages tile its clock exactly.
    if (std::abs(rec.sim_us - clock_us) > 1e-9 * clock_us + 1e-6) {
      res.fail(at + "stages sum to " + num(rec.sim_us) + " us but the clock advanced " +
               num(clock_us) + " us");
      return std::nullopt;
    }
  } else {
    // The device executes every stage back to back while StepTimes reports
    // the reconstructed rank-0 lane, so rank 0's own compute must fit in
    // the device's clock advance and the stages must sum to the step.
    const core::StepTimes& t = rec.t;
    const double parts[] = {t.forward_us, t.backward_us, t.sync_us, t.update_us,
                            t.pp_bubble_us, t.pp_exposed_us};
    double sum = 0;
    bool sane = true;
    for (double v : parts) {
      sane = sane && std::isfinite(v) && v >= 0;
      sum += v;
    }
    if (!sane || sum != rec.sim_us || rec.sim_us <= 0 ||
        t.forward_us + t.backward_us + t.update_us > clock_us * (1 + 1e-9)) {
      res.fail(at + "rank-0 stages inconsistent with the device clock");
      return std::nullopt;
    }
  }
  const auto* arena = dynamic_cast<const mem::ArenaAllocator*>(&rig.session->activations());
  if (arena == nullptr || arena->high_water() > arena->capacity()) {
    res.fail(at + "activations did not stay inside the arena");
    return std::nullopt;
  }
  if (spec.mode == simgpu::ExecMode::kExecute && !std::isfinite(rec.loss)) {
    res.fail("step " + std::to_string(id) + ": non-finite loss");
    return std::nullopt;
  }
  return rec;
}

/// Simulated end-to-end metrics of the schedule steps, plus the
/// loss-falls check in execute mode.
void train_sim_metrics(const TrainSpec& spec, const std::vector<StepRecord>& steps,
                       Result& res) {
  const int dp = spec.cluster.dp_size();
  double sim_us = 0, tokens = 0;
  std::vector<double> step_ms, tok_us;
  for (const StepRecord& s : steps) {
    sim_us += s.sim_us;
    tokens += static_cast<double>(s.tokens * dp);
    step_ms.push_back(s.sim_us / 1e3);
    tok_us.push_back(s.sim_us / static_cast<double>(s.tokens * dp));
  }
  res.m["sim_tokens_per_s"] = tokens / (sim_us * 1e-6);
  res.m["latency_p50_ms"] = median(step_ms);
  res.m["latency_p99_ms"] = obs::exact_percentile(step_ms, 0.99);
  res.m["token_time_p50_us"] = median(tok_us);
  res.m["token_time_p99_us"] = obs::exact_percentile(tok_us, 0.99);
  if (spec.mode == simgpu::ExecMode::kExecute) {
    const size_t tenth = std::max<size_t>(1, steps.size() / 10);
    double first = 0, last = 0;
    for (size_t i = 0; i < tenth; ++i) {
      first += steps[i].loss;
      last += steps[steps.size() - tenth + i].loss;
    }
    first /= static_cast<double>(tenth);
    last /= static_cast<double>(tenth);
    res.m["core.train_loss"] = last;
    ++res.attempted;
    if (!(last < first))
      res.fail("loss did not fall: first-10% mean " + num(first) + ", last-10% mean " +
               num(last));
  }
}

/// Runs the schedule (warm-up + steps); returns the records of the steps
/// that passed, or nothing when any failed.
std::optional<std::vector<StepRecord>> run_schedule(const TrainSpec& spec, TrainRig& rig,
                                                    const std::vector<models::MtBatch>& b,
                                                    Tracer& tr, Result& res) {
  std::vector<StepRecord> recs;
  bool ok = true;
  for (size_t i = 0; i < b.size(); ++i) {
    auto r = run_step(spec, rig, b[i], static_cast<int64_t>(i), tr, res);
    if (!r) {
      ok = false;
      continue;
    }
    if (i > 0) recs.push_back(*r);  // step 0 is the warm-up
  }
  if (!ok) return std::nullopt;
  return recs;
}

void host_step_metrics(const std::vector<StepRecord>& steps, Result& res) {
  std::vector<double> tps, ms;
  for (const StepRecord& s : steps) {
    tps.push_back(static_cast<double>(s.tokens) / s.host_s);
    ms.push_back(s.host_s * 1e3);
  }
  res.m["host_tokens_per_s"] = median(tps);
  res.m["core.step_host_ms_p50"] = median(ms);
  res.m["core.step_host_ms_p99"] = obs::exact_percentile(ms, 0.99);
}

void run_training(const TrainSpec& spec, const Args& args, Result& res) {
  const std::vector<models::MtBatch> sched = make_schedule(spec, args.seed);
  const std::vector<const models::MtBatch*> probes = probe_batches(sched);
  Tracer tr(args.trace);

  if (!args.trace) {
    // Passes over the schedule, each on a freshly built rig, until the time
    // is up; every pass must simulate exactly like the first.
    const auto t_start = Clock::now();
    auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - t_start).count(); };
    std::vector<double> setups;
    std::vector<StepRecord> first, timed;
    for (int pass = 0; pass < spec.max_passes && (pass == 0 || elapsed() < args.seconds);
         ++pass) {
      TrainRig rig = build_rig(spec, probes, tr, false, nullptr);
      setups.push_back(rig.setup_s);
      auto recs = run_schedule(spec, rig, sched, tr, res);
      if (!recs) return;
      if (pass == 0) {
        first = *recs;
        train_sim_metrics(spec, first, res);
      } else {
        ++res.attempted;
        if (*recs != first)
          res.fail("pass " + std::to_string(pass) + " simulated differently from pass 0");
      }
      timed.insert(timed.end(), recs->begin(), recs->end());
    }
    // Set-up only repetitions until setup_s is a median of spec.setups.
    while (static_cast<int>(setups.size()) < spec.setups)
      setups.push_back(build_rig(spec, probes, tr, false, nullptr).setup_s);
    res.m["setup_s"] = median(setups);
    host_step_metrics(timed, res);
    return;
  }

  // Traced: untraced pass for host numbers, traced pass for device numbers,
  // both over the schedule's first trace_steps steps.
  const std::vector<models::MtBatch> prefix(
      sched.begin(), sched.begin() + std::min(spec.steps, spec.trace_steps) + 1);
  std::vector<StepRecord> base;
  double base_host = 0;
  {
    TrainRig plain = build_rig(spec, probes, tr, false, nullptr);
    auto recs = run_schedule(spec, plain, prefix, tr, res);
    if (!recs) return;
    base = *recs;
    for (const StepRecord& s : base) base_host += s.host_s;
    host_step_metrics(base, res);
    for (const auto& [k, v] : plain.parts) res.m[k] = v;
  }

  obs::MetricsRegistry reg;
  TrainRig rig = build_rig(spec, probes, tr, true, &reg);
  auto& dev = rig.session->device();
  // Warm-up outside the measured device window.
  if (!run_step(spec, rig, prefix[0], 0, tr, res)) return;
  const DeviceWindow w0 = DeviceWindow::of(dev);
  std::vector<StepRecord> traced;
  for (size_t i = 1; i < prefix.size(); ++i) {
    // The device timeline keeps every kernel: record the first few steps.
    if (i == 1 + kTimelineSteps) dev.set_record_timeline(false);
    auto r = run_step(spec, rig, prefix[i], static_cast<int64_t>(i), tr, res);
    if (!r) return;
    traced.push_back(*r);
  }
  const DeviceWindow w1 = DeviceWindow::of(dev);
  ++res.attempted;
  if (traced != base) res.fail("traced run's simulated metrics differ from the untraced run");
  double traced_host = 0;
  for (const StepRecord& s : traced) traced_host += s.host_s;
  res.m["bench.trace_overhead_frac"] = traced_host / base_host - 1.0;
  train_sim_metrics(spec, traced, res);

  const double n = static_cast<double>(traced.size());
  std::map<std::string, double> sum;
  for (const StepRecord& s : traced) {
    sum["models.forward_us"] += s.t.forward_us;
    sum["models.backward_us"] += s.t.backward_us;
    sum["optim.update_us"] += s.t.update_us;
    sum["optim.update_overlapped_us"] += s.t.update_overlapped_us;
    sum["dist.sync_exposed_us"] += s.t.sync_us;
    sum["dist.sync_hidden_us"] += s.t.sync_overlapped_us;
    sum["dist.tp_exposed_us"] += s.t.tp_exposed_us;
    sum["dist.pp_bubble_us"] += s.t.pp_bubble_us;
    sum["dist.pp_exposed_us"] += s.t.pp_exposed_us;
    sum["dist.wire_bytes"] += static_cast<double>(s.t.wire_bytes);
    sum["dist.tp_bytes"] += static_cast<double>(s.t.tp_bytes);
  }
  for (const auto& [k, v] : sum) res.m[k] = v / n;
  device_layer_metrics(w0, w1, n, res);
  const double launches = static_cast<double>(w1.stats.launches - w0.stats.launches);
  res.m["simgpu.host_us_per_launch"] = launches > 0 ? base_host * 1e6 / launches : 0;
  res.m["gemm.host_gflops"] =
      res.m["gemm.flops"] / (res.m["core.step_host_ms_p50"] * 1e-3) / 1e9;
  res.m["memory.activation_peak_mb"] =
      static_cast<double>(
          dynamic_cast<const mem::ArenaAllocator&>(rig.session->activations()).high_water()) /
      1e6;
  res.m["memory.permanent_mb"] = static_cast<double>(rig.session->permanent_bytes()) / 1e6;
  res.m["memory.peak_mb"] = static_cast<double>(rig.session->permanent_bytes() +
                                                rig.session->activation_peak_bytes()) /
                            1e6;
  res.m["memory.alloc_stall_us"] = dev.stats().alloc_stall_us;
  res.m["memory.alloc_events"] = dev.stats().alloc_events;

  const std::string dir = args.out;
  dev.timeline().write_chrome_trace(dir + "/device_trace.json");
  obs::collect_device_metrics(reg, dev);
  std::ofstream(dir + "/registry.json") << reg.to_json();
  std::ofstream(dir + "/roofline.txt")
      << obs::format_roofline(obs::build_roofline(reg, dev.profile()), 40);
  tr.write(dir + "/host_spans.json");
}

TrainSpec mt_big_3d() {
  TrainSpec s;
  s.model = models::TransformerConfig::big(6, 6);
  s.mode = simgpu::ExecMode::kModelOnly;
  s.cluster.gpus_per_node = 4;
  s.cluster.nodes = 2;
  s.cluster.tensor_parallel = 2;
  s.cluster.pipeline_parallel = 2;
  s.cluster.microbatches = 4;
  s.batch_tokens = 4096;
  s.min_len = 4;
  s.max_len = 128;
  s.steps = 1000;
  s.trim_rows = true;
  s.max_passes = 1;
  s.trace_steps = 200;
  s.setups = 5;
  return s;
}

TrainSpec mt_small_exec() {
  TrainSpec s;
  s.model.vocab = 512;
  s.model.hidden = 128;
  s.model.heads = 4;
  s.model.ffn_dim = 512;
  s.model.encoder_layers = 2;
  s.model.decoder_layers = 2;
  s.model.max_len = 128;
  s.mode = simgpu::ExecMode::kExecute;
  s.cluster = dist::ClusterConfig{1, 1};
  s.batch_tokens = 1024;
  s.min_len = 4;
  s.max_len = 48;
  s.steps = 20;
  // Fresh batches of this copy task barely move the loss in 20 steps (the
  // model must first learn source-target alignment); ten epochs over two
  // batches give the loss-falls check a clear signal.
  s.corpus_batches = 2;
  s.setups = 15;
  return s;
}

// ---------------------------------------------------------------------------
// Serving workload
// ---------------------------------------------------------------------------

struct ServeSpec {
  int replicas = 2;
  int64_t slots = 16;
  int64_t max_len = 256;
  int64_t page_tokens = 16;
  int64_t requests = 8192;
  /// The traced run serves this prefix of the stream: a device timeline of
  /// every kernel of all requests would take hundreds of MB.
  int64_t trace_requests = 2048;
  double rate = 270;            ///< offered load, requests per simulated second
  int64_t system_prompts = 4;
  int64_t system_prompt_len = 48;
  int64_t min_prompt = 8, max_prompt = 64;
  int64_t min_gen = 16, max_gen = 128;
  int min_passes = 3;
};

/// Open-loop Poisson arrivals; half the prompts start with one of the shared
/// system prompts. Arrival times are simulated, so the generator is never late.
std::vector<infer::Request> make_requests(const ServeSpec& spec, int64_t vocab,
                                          uint64_t seed) {
  std::mt19937_64 g(seed * 0xD1B54A32D192ED03ull + 7);
  auto uniform = [&] { return static_cast<double>(g() >> 11) * 0x1.0p-53; };
  auto in = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(g() % static_cast<uint64_t>(hi - lo + 1));
  };
  auto token = [&] { return static_cast<int32_t>(in(3, vocab - 1)); };
  std::vector<std::vector<int32_t>> sys(static_cast<size_t>(spec.system_prompts));
  for (auto& p : sys)
    for (int64_t i = 0; i < spec.system_prompt_len; ++i) p.push_back(token());
  std::vector<infer::Request> reqs;
  double t_us = 0;
  for (int64_t i = 0; i < spec.requests; ++i) {
    t_us += -std::log(1.0 - uniform()) / spec.rate * 1e6;
    infer::Request r;
    r.id = i;
    r.arrival_us = t_us;
    if (g() % 2 == 0) r.prompt = sys[g() % sys.size()];
    const int64_t own = in(spec.min_prompt, spec.max_prompt);
    for (int64_t k = 0; k < own; ++k) r.prompt.push_back(token());
    r.spec.gen_len = in(spec.min_gen, spec.max_gen);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

infer::FleetConfig fleet_config(const ServeSpec& spec, bool device_trace,
                                obs::MetricsRegistry* reg) {
  infer::FleetConfig fc;
  fc.replicas = spec.replicas;
  fc.policy = infer::DispatchPolicy::kJoinShortestQueue;
  fc.model = models::Gpt2Config::base();
  fc.slots = spec.slots;
  fc.max_len = spec.max_len;
  fc.page_tokens = spec.page_tokens;
  fc.prefix_sharing = true;
  fc.session.system = layers::System::kLightSeq2;
  fc.session.profile = simgpu::a100();
  fc.session.mode = simgpu::ExecMode::kModelOnly;
  fc.session.dtype = DType::kF16;
  fc.session.graph_capture = true;
  fc.session.metrics = reg;
  fc.record_timeline = device_trace;
  return fc;
}

/// Checks one fleet run and returns its simulated end-to-end metrics.
std::map<std::string, double> check_fleet(const infer::FleetReport& rep,
                                          const std::vector<infer::Request>& reqs,
                                          int64_t warmup_steps, Result& res) {
  res.attempted += static_cast<int64_t>(reqs.size());
  if (rep.served + rep.shed != static_cast<int64_t>(reqs.size()))
    res.fail("served + shed != requests");
  if (rep.lost != 0) res.fail("lost requests", rep.lost);
  if (rep.shed != 0) res.fail("shed requests", rep.shed);
  std::vector<double> ttft, tpot, ttft_first, ttft_last;
  for (size_t i = 0; i < rep.requests.size(); ++i) {
    const infer::RequestStats& st = rep.requests[i];
    if (st.shed) continue;
    if (st.id != reqs[i].id) {
      res.fail("report order differs from request order at " + std::to_string(i));
      continue;
    }
    if (st.generated != reqs[i].spec.gen_len) {
      res.fail("request " + std::to_string(st.id) + " generated " +
               std::to_string(st.generated) + " of " + std::to_string(reqs[i].spec.gen_len));
      continue;
    }
    ttft.push_back((st.first_token_us - st.arrival_us) / 1e3);
    const size_t quarter = reqs.size() / 4;
    if (i < quarter) ttft_first.push_back(ttft.back());
    if (i >= reqs.size() - quarter) ttft_last.push_back(ttft.back());
    tpot.push_back((st.done_us - st.first_token_us) / static_cast<double>(st.generated - 1));
  }
  // Every decode step but each replica's warm-up and capture steps replays.
  for (size_t i = 0; i < rep.replica_reports.size(); ++i) {
    const infer::ServeReport& r = rep.replica_reports[i];
    const int64_t eager = r.decode_steps - r.replayed_steps;
    if (eager != std::min(r.decode_steps, warmup_steps + 1))
      res.fail("replica " + std::to_string(i) + " ran " + std::to_string(eager) +
               " decode steps eager");
  }
  std::map<std::string, double> m;
  m["sim_tokens_per_s"] = rep.tokens_per_sec;
  m["latency_p50_ms"] = median(ttft);
  m["latency_p99_ms"] = obs::exact_percentile(ttft, 0.99);
  m["token_time_p50_us"] = median(tpot);
  m["token_time_p99_us"] = obs::exact_percentile(tpot, 0.99);
  // Backlog check: a queue that grows over the run shows as later arrivals
  // waiting longer for their first token than early ones.
  res.info["ttft_p50_first_quarter_ms"] = median(ttft_first);
  res.info["ttft_p50_last_quarter_ms"] = median(ttft_last);
  res.info["offered_rate_per_s"] =
      static_cast<double>(reqs.size()) / (reqs.back().arrival_us * 1e-6);
  return m;
}

/// One fleet build + run; returns (setup seconds, run seconds, report).
struct FleetPass {
  double build_s = 0, run_s = 0;
  infer::FleetReport report;
};

/// Every fleet carries a MetricsRegistry, as a deployed server would for its
/// SLO gauges.
FleetPass fleet_pass(const ServeSpec& spec, const std::vector<infer::Request>& reqs,
                     Tracer& tr, bool device_trace, obs::MetricsRegistry& reg,
                     const std::string& trace_path) {
  FleetPass p;
  std::optional<infer::Fleet> fleet;
  {
    Span s(tr, "infer.fleet_build");
    fleet.emplace(fleet_config(spec, device_trace, &reg));
    p.build_s = s.stop();
  }
  {
    Span s(tr, "infer.fleet_run");
    p.report = fleet->run(reqs);
    p.run_s = s.stop();
  }
  if (device_trace) fleet->write_chrome_trace(trace_path);
  return p;
}

/// Sums serve.prefill / serve.decode span time and busy time from a merged
/// fleet Chrome trace (one event per line, B/E pairs per pid/tid lane).
struct TraceSums {
  double prefill_us = 0, decode_us = 0, busy_us = 0;
  int64_t busy_spans = 0;
};

TraceSums sum_fleet_trace(const std::string& path) {
  TraceSums t;
  std::ifstream in(path);
  LS2_CHECK(in.good()) << "cannot read " << path;
  std::map<std::pair<int, int>, std::vector<std::pair<std::string, double>>> open;
  auto field = [](const std::string& line, const char* key) -> std::string {
    const size_t at = line.find(key);
    if (at == std::string::npos) return {};
    size_t b = at + std::strlen(key);
    if (line[b] == '"') {
      ++b;
      return line.substr(b, line.find('"', b) - b);
    }
    return line.substr(b, line.find_first_of(",}", b) - b);
  };
  for (std::string line; std::getline(in, line);) {
    const std::string ph = field(line, "\"ph\":");
    if (ph != "B" && ph != "E") continue;
    const auto lane = std::make_pair(std::stoi(field(line, "\"pid\":")),
                                     std::stoi(field(line, "\"tid\":")));
    const double ts = std::stod(field(line, "\"ts\":"));
    auto& stack = open[lane];
    if (ph == "B") {
      stack.emplace_back(field(line, "\"name\":"), ts);
      continue;
    }
    LS2_CHECK(!stack.empty()) << "unbalanced trace event in " << path;
    const auto [name, begin] = stack.back();
    stack.pop_back();
    if (name == "serve.prefill") t.prefill_us += ts - begin;
    else if (name == "serve.decode") t.decode_us += ts - begin;
    else if (name == "busy") {
      t.busy_us += ts - begin;
      ++t.busy_spans;
    }
  }
  return t;
}

void run_serving(const ServeSpec& spec, const Args& args, Result& res) {
  const std::vector<infer::Request> reqs =
      make_requests(spec, models::Gpt2Config::base().vocab, args.seed);
  const int64_t warmup = core::SessionConfig{}.graph_warmup_steps;
  Tracer tr(args.trace);

  if (!args.trace) {
    std::vector<double> builds, tps;
    std::map<std::string, double> first;
    double timed = 0;
    for (int pass = 0; pass < spec.min_passes || timed < args.seconds; ++pass) {
      obs::MetricsRegistry reg;
      FleetPass p = fleet_pass(spec, reqs, tr, false, reg, "");
      builds.push_back(p.build_s);
      tps.push_back(static_cast<double>(p.report.generated_tokens) / p.run_s);
      timed += p.run_s;
      const auto sim = check_fleet(p.report, reqs, warmup, res);
      if (pass == 0) {
        first = sim;
        for (const auto& [k, v] : sim) res.m[k] = v;
      } else if (sim != first) {
        res.fail("pass " + std::to_string(pass) + " simulated differently from pass 0");
      }
    }
    res.m["setup_s"] = median(builds);
    res.m["host_tokens_per_s"] = median(tps);
    return;
  }

  const std::vector<infer::Request> prefix(
      reqs.begin(), reqs.begin() + std::min<int64_t>(spec.trace_requests,
                                                     static_cast<int64_t>(reqs.size())));
  obs::MetricsRegistry base_reg, reg;
  FleetPass base = fleet_pass(spec, prefix, tr, false, base_reg, "");
  const auto base_sim = check_fleet(base.report, prefix, warmup, res);
  const std::string trace_path = args.out + "/device_trace.json";
  FleetPass traced = fleet_pass(spec, prefix, tr, true, reg, trace_path);
  const auto sim = check_fleet(traced.report, prefix, warmup, res);
  ++res.attempted;
  if (sim != base_sim) res.fail("traced run's simulated metrics differ from the untraced run");
  for (const auto& [k, v] : sim) res.m[k] = v;
  res.m["bench.trace_overhead_frac"] = traced.run_s / base.run_s - 1.0;
  res.m["infer.fleet_build_s"] = base.build_s;

  const infer::FleetReport& rep = traced.report;
  const TraceSums ts = sum_fleet_trace(trace_path);
  int64_t prefills = 0, hits = 0, prefill_pages = 0, cow = 0, preempt = 0, peak = 0;
  double clock_us = 0;
  for (const auto& r : rep.replica_reports) {
    prefills += r.prefills;
    hits += r.shared_page_hits;
    prefill_pages += r.prefill_page_allocs;
    cow += r.cow_copies;
    preempt += r.preemptions;
    peak = std::max(peak, r.peak_pages_used);
    clock_us += r.makespan_us;
  }
  std::vector<double> queue_ms;
  for (const auto& st : rep.requests)
    if (!st.shed) queue_ms.push_back((st.admitted_us - st.arrival_us) / 1e3);
  res.m["infer.queue_p50_ms"] = median(queue_ms);
  res.m["infer.queue_p99_ms"] = obs::exact_percentile(queue_ms, 0.99);
  res.m["infer.prefills"] = static_cast<double>(prefills);
  res.m["infer.prefill_us"] = ts.prefill_us;
  res.m["infer.shared_page_hit_frac"] =
      hits + prefill_pages > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + prefill_pages)
          : 0;
  res.m["infer.decode_steps"] = static_cast<double>(rep.decode_steps);
  res.m["infer.decode_us"] = ts.decode_us;
  res.m["infer.preemptions"] = static_cast<double>(preempt);
  res.m["infer.cow_copies"] = static_cast<double>(cow);
  res.m["infer.peak_pages_used"] = static_cast<double>(peak);
  res.m["infer.redispatches"] = static_cast<double>(rep.redispatches);
  res.m["infer.replayed_frac"] =
      rep.decode_steps > 0
          ? static_cast<double>(rep.replayed_steps) / static_cast<double>(rep.decode_steps)
          : 0;
  res.m["infer.host_us_per_decode_step"] =
      rep.decode_steps > 0 ? base.run_s * 1e6 / static_cast<double>(rep.decode_steps) : 0;
  res.m["simgpu.host_us_per_launch"] =
      ts.busy_spans > 0 ? base.run_s * 1e6 / static_cast<double>(ts.busy_spans) : 0;
  res.m["simgpu.utilization"] = clock_us > 0 ? ts.busy_us / clock_us : 0;

  std::ofstream(args.out + "/registry.json") << reg.to_json();
  tr.write(args.out + "/host_spans.json");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::string host = host_record();
    std::printf("host: %s\n", host.c_str());
    const bool serve = args.workload == "gpt2_serve_fleet";
    LS2_CHECK(serve || args.workload == "mt_big_3d" || args.workload == "mt_small_exec")
        << "unknown workload '" << args.workload << "'";
    if (args.trace) {
      std::filesystem::create_directories(args.out);
      std::ofstream(args.out + "/host.json") << host << "\n";
    }
    Result res;
    if (serve) {
      ServeSpec spec;
      if (args.rate > 0) spec.rate = args.rate;
      run_serving(spec, args, res);
    } else {
      run_training(args.workload == "mt_big_3d" ? mt_big_3d() : mt_small_exec(), args, res);
    }
    res.m["host_peak_rss_mb"] = peak_rss_mb();
    for (const std::string& p : res.problems)
      std::fprintf(stderr, "check failed: %s\n", p.c_str());
    if (!res.info.empty()) {
      std::string info = "{";
      for (const auto& [k, v] : res.info)
        info += (info.size() > 1 ? ", \"" : "\"") + k + "\": " + num(v);
      std::printf("info: %s}\n", info.c_str());
    }
    if (args.trace) {
      std::ofstream(args.out + "/per_layer.json") << res.line(true) << "\n";
      std::ofstream all(args.out + "/metrics.json");
      all << "{";
      for (auto it = res.m.begin(); it != res.m.end(); ++it)
        all << (it == res.m.begin() ? "\"" : ", \"") << it->first << "\": " << num(it->second);
      all << "}\n";
    }
    std::printf("%s\n", res.line(args.trace).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
