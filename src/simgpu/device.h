// Simulated GPU device: executes kernels on the host while advancing an
// analytical device clock.
//
// Two modes (see DESIGN.md §2):
//  * kExecute   — the kernel body runs for real (tests, examples, op benches);
//  * kModelOnly — only the cost model runs, so paper-scale configurations
//                 (24e24d, 15k batch tokens) can be swept in milliseconds.
//
// Every kernel launch declares what it touches (bytes read/written, flops,
// achieved efficiencies); the device charges
//     launch_overhead + max(bytes/BW_eff, flops/TP_eff)
// and attributes the time to the innermost active ScopedRange, which is how
// per-stage breakdowns (Fig. 3) and layer-wise timings (Fig. 19) fall out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "simgpu/profile.h"
#include "simgpu/timeline.h"

namespace ls2::simgpu {

class FaultInjector;

/// A graph-discipline violation surfaced at runtime: replay divergence from
/// the captured step, device malloc/free or full-stream sync under replay,
/// or replaying a poisoned graph. Typed (rather than a bare ls2::Error) so
/// the recovery layer and bench mains can catch graph trouble specifically,
/// fall back to eager execution, and keep going instead of aborting.
class GraphError : public Error {
 public:
  explicit GraphError(const std::string& what) : Error(what) {}
};

enum class ExecMode {
  kExecute,    ///< run kernel bodies (real math) + cost model
  kModelOnly,  ///< cost model only; bodies skipped
};

/// Static description of one kernel launch, from which its simulated
/// duration is computed.
struct KernelDesc {
  std::string name;           ///< e.g. "ls2.layernorm_fw" / "torch.add"
  int64_t bytes_read = 0;     ///< global-memory bytes read
  int64_t bytes_written = 0;  ///< global-memory bytes written
  double flops = 0;           ///< floating point operations
  double mem_efficiency = 0.80;      ///< achieved fraction of peak bandwidth
  double compute_efficiency = 0.70;  ///< achieved fraction of peak FLOPs
  bool tensor_core = false;  ///< true => use fp16 tensor-core peak (GEMM)

  bool operator==(const KernelDesc&) const = default;
};

struct KernelStats {
  int64_t launches = 0;
  int64_t bytes = 0;
  double flops = 0;
  double time_us = 0;  ///< execution + launch gaps (what the family cost the clock)
  /// Pure execution time (no launch gaps / graph dispatch) — the roofline
  /// profiler's numerator: summed over families it equals the kernel share
  /// of DeviceStats::busy_us exactly, replayed or eager.
  double exec_us = 0;
  bool tensor_core = false;  ///< family ran on the tensor-core peak (GEMM)
};

struct DeviceStats {
  int64_t launches = 0;      ///< kernel executions (eager-launched or replayed)
  int64_t bytes_moved = 0;
  double flops = 0;
  double busy_us = 0;        ///< kernel execution time
  /// Total GPU-idle overhead. At least launch_gap_us + alloc_stall_us +
  /// graph_launch_us; `advance(us, busy=false, ...)` also lands here.
  double overhead_us = 0;
  double launch_gap_us = 0;   ///< per-kernel host-dispatch gaps (eager launches)
  double alloc_stall_us = 0;  ///< cudaMalloc/cudaFree/cached-alloc stalls
  double alloc_events = 0;   ///< number of device malloc/free calls
  int64_t comm_transfers = 0;   ///< transfers enqueued on the comm stream
  double comm_us = 0;           ///< total comm-stream busy time
  double exposed_comm_us = 0;   ///< comm time the compute stream waited on
  // --- step-graph replay (see StepGraph below) ---
  int64_t graph_replays = 0;       ///< begin_replay calls
  int64_t replayed_launches = 0;   ///< kernel executions issued via replay
  double graph_launch_us = 0;      ///< whole-graph dispatch overhead charged
};

/// One distinct operation of a captured step graph.
struct GraphNode {
  enum class Kind { kKernel, kCommEnqueue, kCommWait, kAlloc };
  Kind kind = Kind::kKernel;
  KernelDesc desc;     ///< kKernel: validated against the replayed launch
  /// kKernel: execution time baked in at capture — what each replay charges
  /// (a replay runs the captured launch parameters, not fresh ones).
  double exec_us = 0;
  double comm_us = 0;  ///< kCommEnqueue: modeled transfer duration
  /// kAlloc: bytes of one arena sub-allocation (validated under replay).
  int64_t alloc_bytes = 0;
  /// kKernel / kAlloc: innermost active range at capture — where a walked
  /// kernel's time lands, and the site a walked allocation's fault check
  /// matches against.
  std::string range;

  bool operator==(const GraphNode&) const = default;
};

/// An immutable recording of one steady-state step's device work, produced
/// by Device::begin_capture/end_capture and replayed with begin_replay:
/// the replay charges ONE graph-launch overhead plus the kernels'
/// back-to-back execution times — no per-launch gaps. Comm transfers and
/// stream-wait edges are recorded as graph nodes, but their *completion
/// times* are recomputed at each replay from the live comm clock (they are
/// replay-time parameters, which is what lets the pipelined per-bucket
/// update compose with replay).
///
/// Storage is compact: each distinct operation is stored once in `ops`, and
/// the recorded sequence is `order`, a list of indices into it. A model's
/// blocks repeat the same launches and allocations: a GPT-2 base prefill
/// records 466 nodes but only 24 distinct operations.
struct StepGraph {
  std::vector<GraphNode> ops;    ///< distinct operations
  std::vector<uint32_t> order;   ///< the recorded sequence, as indices into ops
  int64_t kernel_launches = 0;  ///< number of kKernel nodes
  double kernel_exec_us = 0;    ///< sum of their execution times
  bool valid = false;           ///< false until end_capture, or when poisoned
  std::string poison_reason;    ///< why capture failed (first offense)
  /// Unique per end_capture in the process (0: never captured) — the key
  /// under which a device caches the stats slots its walks resolve.
  uint64_t id = 0;

  /// Number of recorded nodes.
  size_t size() const { return order.size(); }
  /// The i-th recorded node.
  const GraphNode& node(size_t i) const { return ops[order[i]]; }
};

/// Non-owning reference to a kernel body: a pointer to the caller's
/// callable plus a trampoline that invokes it. A launch therefore never
/// heap-allocates a closure (in kModelOnly the body is not even run). Built
/// from a lambda or other callable, or empty from nullptr, {} or an empty
/// std::function. Like any function reference it must not outlive the
/// callable it names; Device::launch calls it before returning, so passing
/// a temporary lambda is safe. The constructors are implicit so a call
/// site passes its lambda or std::function directly.
class KernelBody {
 public:
  KernelBody() = default;
  KernelBody(std::nullptr_t) {}
  KernelBody(const std::function<void()>& f)
      : obj_(f ? &f : nullptr), call_(&invoke<const std::function<void()>>) {}
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, KernelBody> &&
             !std::is_same_v<std::remove_cvref_t<F>, std::function<void()>> &&
             std::is_invocable_r_v<void, F&>)
  KernelBody(F&& f)
      : obj_(std::addressof(f)), call_(&invoke<std::remove_reference_t<F>>) {}

  explicit operator bool() const { return obj_ != nullptr; }
  void operator()() const { call_(obj_); }

 private:
  template <typename F>
  static void invoke(const void* obj) {
    (*static_cast<F*>(const_cast<void*>(obj)))();
  }

  const void* obj_ = nullptr;
  void (*call_)(const void*) = nullptr;
};

class Device {
 public:
  explicit Device(DeviceProfile profile, ExecMode mode = ExecMode::kExecute);
  // Not copyable: the range stack and the walk cache hold pointers into
  // range_times_ and per_kernel_ (a move keeps them valid, a copy would
  // not).
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  Device(Device&&) = default;
  Device& operator=(Device&&) = default;

  const DeviceProfile& profile() const { return profile_; }
  ExecMode mode() const { return mode_; }
  void set_mode(ExecMode m) { mode_ = m; }

  /// Launch one kernel: advances the clock by the modeled duration and (in
  /// execute mode) runs `body`.
  void launch(const KernelDesc& desc, KernelBody body);

  /// Modeled duration of a kernel without launching it.
  double kernel_time_us(const KernelDesc& desc) const;

  // --- charge scaling (tensor parallelism) ---
  //
  // While a scale s is pushed, every launch's modeled bytes and flops are
  // multiplied by s before costing/recording — how TP layers charge their
  // row-wise kernels at 1/k shard size without duplicating call sites
  // (bandwidth-bound kernels scale linearly in bytes; GEMMs instead pass
  // explicit shard descriptors so their occupancy model sees real shard
  // shapes). The scaled descriptor is what a capture records, so replay
  // validation stays consistent as long as the regions are deterministic.
  void push_charge_scale(double s);
  void pop_charge_scale();
  double charge_scale() const { return charge_scale_; }

  /// Advance the clock without a kernel (allocator stalls, comm waits...).
  /// `busy` selects whether the span counts toward utilisation.
  void advance(double us, bool busy, const std::string& attribution);

  // --- Communication stream (overlapped data-parallel sync) ---
  //
  // The device models TWO streams: the compute stream (`clock_us`, which
  // every kernel launch advances) and a communication stream on which
  // gradient all-reduces run concurrently with compute. A transfer enqueued
  // at compute time t starts at max(t, previous transfer's end) — it can
  // overlap later compute but transfers serialize among themselves, like
  // NCCL calls on one comm stream.

  /// Enqueue `us` microseconds of communication; returns the transfer's
  /// modeled completion time. Does NOT advance the compute clock.
  double enqueue_comm(double us, const std::string& attribution);
  /// Block the compute stream until the comm stream drains (stream sync).
  /// The wait — comm time NOT hidden behind compute — is charged to
  /// `attribution` and returned ("exposed" synchronization time).
  double sync_comm(const std::string& attribution);
  /// Block the compute stream until the comm stream has reached `t_us` —
  /// a stream-wait-event on one transfer's completion rather than a full
  /// drain. Later transfers keep running; the wait (charged to
  /// `attribution`, counted as exposed comm) is returned. No-op when the
  /// compute clock is already past `t_us`.
  double wait_comm_until(double t_us, const std::string& attribution);
  double comm_clock_us() const { return comm_clock_us_; }

  // --- Step-graph capture & replay (CUDA-Graphs discipline) ---
  //
  // Capture is CONCURRENT with eager execution: between begin_capture and
  // end_capture every launch / comm enqueue / stream-wait is charged exactly
  // as usual AND recorded as a graph node, so the capture step stays
  // bitwise- and time-identical to an eager step. Capture is POISONED (the
  // returned graph is invalid, with a reason) by operations that are illegal
  // inside a real CUDA stream capture: device malloc/free (an allocator
  // stall means addresses are not stable — the arena never stalls, which is
  // what certifies it capture-safe) and full-stream syncs.
  //
  // Arena sub-allocations are graph nodes too (kAlloc, see on_arena_alloc):
  // they cost no device time, but recording them lets a replay check the
  // step allocates exactly as captured and lets a walk (below) fire
  // injected allocation faults at the same point of the step.
  //
  // Replay consumes the graph's nodes in order: begin_replay charges one
  // graph-launch overhead. A replay is then driven one of two ways:
  //  * host-driven — the host re-runs the step: each launch and arena
  //    allocation is validated against its node (name, bytes, flops — a
  //    mismatch means the step is not actually static) and a launch is
  //    charged only its execution time, back to back. Kernel bodies still
  //    run in kExecute mode — replay changes the cost model, never the
  //    numerics. kExecute and training replays are driven this way.
  //  * walked — walk_replay charges the remaining nodes itself, with no
  //    host launch at all. For a kModelOnly step whose outputs nothing
  //    reads (a model-only decode step), re-running the model would only
  //    produce launches to validate and throw away. The walk charges a
  //    kernel node exactly as a host-driven replayed launch (stats,
  //    per-kernel stats, fault hooks, timeline, range time) and runs the
  //    allocation-fault check at each kAlloc node.
  //
  // A captured graph can also stand in for eager work: walk_eager charges
  // every node exactly as the eager launch() it recorded (launch gap
  // included, no graph-launch overhead, no replay stats). That memoizes a
  // model-only step whose launches depend only on its shape — an admission
  // prefill, keyed by prompt length — without changing a simulated number.
  //
  // Both walks resolve a kernel node's per_kernel() and range_times()
  // entries once per (graph, reset()), keyed by StepGraph::id, so walks of
  // several graphs can alternate without re-resolving.

  void begin_capture();
  /// Finish capture; the result is valid unless capture was poisoned.
  StepGraph end_capture();
  /// Invalidate an in-progress capture (no-op otherwise). The remainder of
  /// the step keeps charging eagerly; end_capture returns the reason.
  void poison_capture(const std::string& reason);
  /// Start replaying `graph` (must outlive the replay and be valid).
  void begin_replay(const StepGraph& graph);
  /// Finish replay; checks every node was consumed.
  void end_replay();
  /// Walk the replay in progress: charge every node not yet consumed, in
  /// order, without host launches. A kernel node is charged to the range
  /// recorded at capture. Returns the kAlloc node whose injected fault
  /// failed it (the walk stops after it; the caller raises the allocator's
  /// transient failure), or nullptr when the walk reached the end. Throws
  /// GraphError on a graph with comm nodes: their completion times are
  /// replay-time parameters of the host's comm schedule. Stats slots are
  /// resolved once per (graph, reset()).
  const GraphNode* walk_replay();
  /// Charge every node of `graph` (valid, no comm nodes) exactly as the
  /// eager launch() calls it recorded: count, fault hooks, launch gap,
  /// busy time, per-kernel time, timeline and range time, in launch()'s
  /// arithmetic order; a kernel's time goes to the range recorded at
  /// capture. No host launch, no replay stats. Runs the allocation-fault
  /// check at each kAlloc node and returns the node whose injected fault
  /// failed it (the walk stops after it), or nullptr. Only outside a
  /// capture or replay.
  const GraphNode* walk_eager(const StepGraph& graph);
  /// Abandon any capture/replay in progress without validation — for
  /// unwinding after an exception mid-step. Never throws.
  void abort_graph() noexcept;
  bool capturing() const { return graph_phase_ == GraphPhase::kCapture; }
  bool replaying() const { return graph_phase_ == GraphPhase::kReplay; }

  // --- Fault injection (src/simgpu/fault.h) ---
  //
  // With an injector installed, every launch consults it for latency spikes
  // and rank-0 device loss, comm transfers are stretched by the straggler
  // factor, and sync points double as failure-detection points. A null
  // injector (the default) costs one pointer test per hook — the fault-free
  // paths are otherwise untouched.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  FaultInjector* fault_injector() const { return fault_; }
  /// Innermost active ScopedRange name ("" when none) — the site key for
  /// range-gated fault events (e.g. alloc failure inside "serve.decode").
  const std::string& current_range() const;
  /// Collective sync point: fires pending sync-scoped faults and, when a
  /// peer loss is armed, charges the detection timeout as idle wait
  /// ("fault.detect") and throws PeerLostError. sync_comm/wait_comm_until
  /// call this internally; step paths whose DP sync is modeled analytically
  /// (the 1F1B engine) call it explicitly at their sync boundary.
  void at_sync_point(const std::string& attribution);

  /// Arena hook, one call per sub-allocation of `bytes` from pre-reserved
  /// memory: records a kAlloc node under capture, consumes (and validates)
  /// one under host-driven replay, and returns true when an armed
  /// allocation fault fails this request — the allocator then raises its
  /// transient failure. Charges no time: the arena never stalls.
  bool on_arena_alloc(int64_t bytes);
  /// Allocator hooks: charge allocation latency and record the watermark.
  void charge_alloc(bool cache_hit);
  void charge_free();
  void on_memory_change(int64_t bytes_in_use);

  double clock_us() const { return clock_us_; }
  const DeviceStats& stats() const { return stats_; }
  /// launch() calls since construction or reset(): the kernels the host
  /// issued, as opposed to the ones a walk charged.
  int64_t host_launches() const { return host_launches_; }
  /// Kernel nodes walk_replay and walk_eager charged since construction or
  /// reset(), including one a fault hook failed: together with
  /// host_launches() this is every kernel the device was asked to run.
  int64_t walked_launches() const { return walked_launches_; }
  const std::map<std::string, KernelStats>& per_kernel() const { return per_kernel_; }

  /// Time attributed to a named range across all launches so far.
  double range_time_us(const std::string& range) const;
  const std::map<std::string, double>& range_times() const { return range_times_; }

  /// GPU utilisation so far: busy / (busy + idle overhead).
  double utilization() const;

  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }
  void set_record_timeline(bool on) { record_timeline_ = on; }
  bool record_timeline() const { return record_timeline_; }

  /// Drop a named instant marker at the current clock on the timeline
  /// (no-op unless the timeline is recording) — how fault/retry/hedge
  /// events become visible in the exported Chrome trace.
  void mark(const std::string& name) {
    if (record_timeline_) timeline_.record_instant(0, 0, name, clock_us_);
  }

  /// Reset clock/stats/timeline (memory watermark is kept by the allocator).
  void reset();

  // --- Scoped range API (see ScopedRange below) ---
  void push_range(const std::string& name);
  void pop_range();

 private:
  enum class GraphPhase { kNone, kCapture, kReplay };

  void attribute(double us);
  /// Count one kernel execution in the device and per-family stats.
  void count_launch(const KernelDesc& desc, KernelStats& ks);
  /// Charge one eager kernel execution, shared by launch() and walk_eager:
  /// faults apply on top of the clean `base_exec`, plus the launch gap.
  /// `desc` gives the costed numbers and `name` the kernel (a charge-scaled
  /// launch passes a nameless scaled copy). Returns the time charged, which
  /// the caller attributes to a range.
  double charge_eager(const KernelDesc& desc, const std::string& name, double base_exec,
                      KernelStats& ks);
  /// Charge one replayed kernel node, shared by host-driven replay and the
  /// walk: faults apply on top of the captured `exec_us`. Returns the time
  /// charged, which the caller attributes to a range.
  double charge_replayed(const KernelDesc& desc, const std::string& name, double exec_us,
                         KernelStats& ks);
  /// Shared walk loop: charge `graph`'s nodes from `cursor` on (eagerly or
  /// as replayed), advancing `cursor`; returns a failed kAlloc node or
  /// nullptr at the end.
  const GraphNode* walk(const StepGraph& graph, size_t& cursor, bool eager);
  /// Record one node into the capture, storing its operation once.
  void capture_node(GraphNode node);
  /// True when an armed allocation fault matching `range` fails this one.
  bool alloc_fault(const std::string& range);
  /// Replay-side node matching: checks the next node has `kind` (and, for
  /// a kernel, `name` and the costed numbers of `cost`) and advances the
  /// cursor.
  const GraphNode& consume_node(GraphNode::Kind kind, const std::string* name = nullptr,
                                const KernelDesc* cost = nullptr);

  DeviceProfile profile_;
  ExecMode mode_;
  double clock_us_ = 0;
  double comm_clock_us_ = 0;  ///< completion time of the last comm transfer
  GraphPhase graph_phase_ = GraphPhase::kNone;
  StepGraph capture_;                  ///< graph being built (kCapture)
  bool capture_poisoned_ = false;
  const StepGraph* replay_ = nullptr;  ///< graph being consumed (kReplay)
  size_t replay_cursor_ = 0;
  double charge_scale_ = 1.0;
  std::vector<double> charge_scale_stack_;
  DeviceStats stats_;
  std::map<std::string, KernelStats> per_kernel_;
  std::map<std::string, double> range_times_;
  /// One active ScopedRange. `slot` caches the range's range_times_ entry
  /// from the first time charged to it (map nodes are stable), so a launch
  /// attributes its time without a lookup; reset() clears the slots.
  struct RangeFrame {
    std::string name;
    double* slot = nullptr;
  };
  std::vector<RangeFrame> range_stack_;
  /// capture_'s distinct operations -> their index in capture_.ops.
  struct GraphNodeHash {
    size_t operator()(const GraphNode& n) const;
  };
  std::unordered_map<GraphNode, uint32_t, GraphNodeHash> capture_ops_;
  /// A walk's stats slots for one graph, one per operation, filled the
  /// first time the operation is charged; reset() drops them.
  struct WalkSlot {
    KernelStats* kernel = nullptr;
    double* range = nullptr;
  };
  /// Slots per walked graph id (checked free of comm nodes when created).
  std::unordered_map<uint64_t, std::vector<WalkSlot>> walk_slots_;
  /// The slots of `graph`, created (after the comm-node check) on its first
  /// walk since reset().
  std::vector<WalkSlot>& walk_slots(const StepGraph& graph);
  int64_t host_launches_ = 0;
  int64_t walked_launches_ = 0;
  Timeline timeline_;
  bool record_timeline_ = false;
  FaultInjector* fault_ = nullptr;  ///< not owned; null = fault-free
};

/// RAII stage marker: time advanced while alive is attributed to `name`
/// (innermost wins). Mirrors nvtx ranges.
class ScopedRange {
 public:
  ScopedRange(Device& device, std::string name) : device_(device) {
    device_.push_range(std::move(name));
  }
  ~ScopedRange() { device_.pop_range(); }
  ScopedRange(const ScopedRange&) = delete;
  ScopedRange& operator=(const ScopedRange&) = delete;

 private:
  Device& device_;
};

}  // namespace ls2::simgpu
