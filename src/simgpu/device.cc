#include "simgpu/device.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"
#include "simgpu/fault.h"

namespace ls2::simgpu {

Device::Device(DeviceProfile profile, ExecMode mode)
    : profile_(std::move(profile)), mode_(mode) {}

double Device::kernel_time_us(const KernelDesc& desc) const {
  const double bytes = static_cast<double>(desc.bytes_read + desc.bytes_written);
  // GB/s == bytes/ns, so us = bytes / (BW * 1e3).
  const double mem_us = bytes / (profile_.mem_bw_gb_s * desc.mem_efficiency * 1e3);
  const double peak_tflops = desc.tensor_core ? profile_.fp16_tflops : profile_.fp32_tflops;
  const double compute_us = desc.flops / (peak_tflops * desc.compute_efficiency * 1e6);
  return std::max(mem_us, compute_us);
}

void Device::push_charge_scale(double s) {
  LS2_CHECK(s > 0 && s <= 1.0) << "charge scale " << s;
  charge_scale_stack_.push_back(charge_scale_);
  charge_scale_ *= s;
}

void Device::pop_charge_scale() {
  LS2_CHECK(!charge_scale_stack_.empty()) << "pop_charge_scale with empty stack";
  charge_scale_ = charge_scale_stack_.back();
  charge_scale_stack_.pop_back();
}

void Device::launch(const KernelDesc& desc, KernelBody body) {
  ++host_launches_;
  LS2_CHECK(desc.mem_efficiency > 0 && desc.mem_efficiency <= 1.0)
      << desc.name << " mem_efficiency " << desc.mem_efficiency;
  LS2_CHECK(desc.compute_efficiency > 0 && desc.compute_efficiency <= 1.0)
      << desc.name << " compute_efficiency " << desc.compute_efficiency;
  // Under a charge scale the costed numbers are scaled into a nameless
  // descriptor; the name is always read from `desc`.
  KernelDesc scaled;
  if (charge_scale_ != 1.0) {
    scaled.bytes_read =
        static_cast<int64_t>(static_cast<double>(desc.bytes_read) * charge_scale_);
    scaled.bytes_written =
        static_cast<int64_t>(static_cast<double>(desc.bytes_written) * charge_scale_);
    scaled.flops = desc.flops * charge_scale_;
    scaled.mem_efficiency = desc.mem_efficiency;
    scaled.compute_efficiency = desc.compute_efficiency;
    scaled.tensor_core = desc.tensor_core;
  }
  const KernelDesc& cost = charge_scale_ == 1.0 ? desc : scaled;

  if (graph_phase_ == GraphPhase::kReplay) {
    const GraphNode& node = consume_node(GraphNode::Kind::kKernel, &desc.name, &cost);
    attribute(charge_replayed(cost, desc.name, node.exec_us, per_kernel_[desc.name]));
  } else {
    // The spike multiplier is charged live but the CAPTURE records the clean
    // execution time: a transient stall on the capture step must not get
    // baked into every future replay.
    const double base_exec = kernel_time_us(cost);
    attribute(charge_eager(cost, desc.name, base_exec, per_kernel_[desc.name]));
    if (graph_phase_ == GraphPhase::kCapture) {
      GraphNode node;
      node.kind = GraphNode::Kind::kKernel;
      node.desc = cost;
      node.desc.name = desc.name;
      node.exec_us = base_exec;
      node.range = current_range();
      capture_node(std::move(node));
      capture_.kernel_launches += 1;
      capture_.kernel_exec_us += base_exec;
    }
  }

  if (mode_ == ExecMode::kExecute && body) body();
}

void Device::count_launch(const KernelDesc& desc, KernelStats& ks) {
  const int64_t bytes = desc.bytes_read + desc.bytes_written;
  stats_.launches += 1;
  stats_.bytes_moved += bytes;
  stats_.flops += desc.flops;
  ks.launches += 1;
  ks.bytes += bytes;
  ks.flops += desc.flops;
}

double Device::charge_eager(const KernelDesc& desc, const std::string& name,
                            double base_exec, KernelStats& ks) {
  count_launch(desc, ks);
  const double exec = fault_ != nullptr ? base_exec * fault_->on_kernel(name) : base_exec;
  stats_.busy_us += exec;
  // Launch gap: the GPU is idle while the host dispatches the kernel.
  const double overhead = profile_.launch_overhead_us;
  stats_.overhead_us += overhead;
  stats_.launch_gap_us += overhead;
  ks.time_us += overhead + exec;
  ks.exec_us += exec;
  ks.tensor_core = desc.tensor_core;
  clock_us_ += overhead;
  const double busy_begin = clock_us_;
  clock_us_ += exec;
  if (record_timeline_) timeline_.record_busy(busy_begin, clock_us_);
  return overhead + exec;
}

double Device::charge_replayed(const KernelDesc& desc, const std::string& name,
                               double exec_us, KernelStats& ks) {
  count_launch(desc, ks);
  // Replayed kernels run back to back: the graph was dispatched as one
  // unit (charged in begin_replay), so there is no per-launch gap. The
  // execution time is the one BAKED INTO the graph node at capture — a
  // replay runs the captured launch parameters, not freshly-derived ones.
  // Faults still apply: replay fixes the launch sequence, not the silicon.
  if (fault_ != nullptr) exec_us *= fault_->on_kernel(name);
  stats_.replayed_launches += 1;
  stats_.busy_us += exec_us;
  ks.time_us += exec_us;
  ks.exec_us += exec_us;
  ks.tensor_core = desc.tensor_core;
  const double busy_begin = clock_us_;
  clock_us_ += exec_us;
  if (record_timeline_) timeline_.record_busy(busy_begin, clock_us_);
  return exec_us;
}

void Device::advance(double us, bool busy, const std::string& attribution) {
  if (us <= 0) return;
  if (busy) {
    const double begin = clock_us_;
    stats_.busy_us += us;
    clock_us_ += us;
    if (record_timeline_) timeline_.record_busy(begin, clock_us_);
  } else {
    stats_.overhead_us += us;
    clock_us_ += us;
  }
  if (!attribution.empty()) {
    range_times_[attribution] += us;
  } else {
    attribute(us);
  }
}

double Device::enqueue_comm(double us, const std::string& attribution) {
  LS2_CHECK(us >= 0) << "negative comm time";
  if (us == 0) return std::max(comm_clock_us_, clock_us_);
  if (graph_phase_ == GraphPhase::kCapture) {
    GraphNode node;
    node.kind = GraphNode::Kind::kCommEnqueue;
    node.comm_us = us;
    capture_node(std::move(node));
  } else if (graph_phase_ == GraphPhase::kReplay) {
    // The transfer is a graph node, but its begin/completion times are
    // recomputed below from the live clocks (replay-time parameters).
    const GraphNode& node = consume_node(GraphNode::Kind::kCommEnqueue);
    if (node.comm_us != us)
      throw GraphError("replayed comm transfer duration " + std::to_string(us) +
                       " us != captured " + std::to_string(node.comm_us) +
                       " us — gradient payload changed under replay");
  }
  // A degraded link stretches the transfer ON THE WIRE: the graph node keeps
  // (and replay validates) the clean payload duration — the link, not the
  // payload, is what changed — while the clocks charge the stretched time.
  const double wire_us = fault_ != nullptr ? us * fault_->comm_factor() : us;
  // The transfer starts once its payload exists (now, on the compute clock)
  // and the comm stream is free; transfers serialize among themselves.
  const double begin = std::max(comm_clock_us_, clock_us_);
  comm_clock_us_ = begin + wire_us;
  stats_.comm_transfers += 1;
  stats_.comm_us += wire_us;
  if (record_timeline_) timeline_.record_comm(begin, comm_clock_us_);
  // Overlapped time is deliberately NOT attributed to the active compute
  // range; only the exposed wait (sync_comm) lands in a range.
  (void)attribution;
  return comm_clock_us_;
}

double Device::sync_comm(const std::string& attribution) {
  at_sync_point(attribution);
  if (graph_phase_ == GraphPhase::kCapture) {
    // cudaStreamSynchronize is illegal inside a stream capture.
    poison_capture("full comm-stream sync during capture (" + attribution + ")");
  }
  // A valid graph can never contain a sync (it would have poisoned its own
  // capture), so a sync inside a replay is a divergence from the captured
  // step — reject it like every other graph-illegal operation.
  if (graph_phase_ == GraphPhase::kReplay)
    throw GraphError("full comm-stream sync during graph replay (" + attribution +
                     ") — the replayed step diverged from the capture");
  const double exposed = std::max(0.0, comm_clock_us_ - clock_us_);
  if (exposed > 0) {
    // The compute stream stalls while the fabric finishes: idle SMs, busy
    // links. Counted as busy so utilisation matches the blocking path.
    advance(exposed, /*busy=*/true, attribution);
    stats_.exposed_comm_us += exposed;
  }
  if (fault_ != nullptr) fault_->note_exposed_wait(exposed, clock_us_);
  return exposed;
}

double Device::wait_comm_until(double t_us, const std::string& attribution) {
  at_sync_point(attribution);
  if (graph_phase_ == GraphPhase::kCapture) {
    GraphNode node;
    node.kind = GraphNode::Kind::kCommWait;
    capture_node(std::move(node));
  } else if (graph_phase_ == GraphPhase::kReplay) {
    // A stream-wait edge: the edge is part of the graph, the timestamp it
    // resolves to is not — the exposed wait is recomputed every replay.
    (void)consume_node(GraphNode::Kind::kCommWait);
  }
  // A transfer's completion time can never exceed the comm clock; waiting
  // past it would be waiting on nothing.
  const double target = std::min(t_us, comm_clock_us_);
  const double exposed = std::max(0.0, target - clock_us_);
  if (exposed > 0) {
    advance(exposed, /*busy=*/true, attribution);
    stats_.exposed_comm_us += exposed;
  }
  if (fault_ != nullptr) fault_->note_exposed_wait(exposed, clock_us_);
  return exposed;
}

void Device::at_sync_point(const std::string& attribution) {
  if (fault_ == nullptr) return;
  fault_->fire_sync_faults();
  if (const FaultEvent* e = fault_->take_peer_loss()) {
    // Detection is never free and never early: the collective blocks for its
    // full timeout before the stack can conclude the peer is gone (NCCL
    // watchdog semantics), and that stall is charged on the timeline.
    advance(fault_->collective_timeout_us(), /*busy=*/false, "fault.detect");
    fault_->note_detection(clock_us_);
    throw PeerLostError("simgpu: peer rank " + std::to_string(e->rank) +
                            " lost — collective timed out after " +
                            std::to_string(fault_->collective_timeout_us()) +
                            " us at '" + attribution + "'",
                        e->rank);
  }
}

const std::string& Device::current_range() const {
  static const std::string kNoRange;
  return range_stack_.empty() ? kNoRange : range_stack_.back().name;
}

bool Device::on_arena_alloc(int64_t bytes) {
  if (graph_phase_ == GraphPhase::kCapture) {
    GraphNode node;
    node.kind = GraphNode::Kind::kAlloc;
    node.alloc_bytes = bytes;
    node.range = current_range();
    capture_node(std::move(node));
  } else if (graph_phase_ == GraphPhase::kReplay) {
    const GraphNode& node = consume_node(GraphNode::Kind::kAlloc);
    if (node.alloc_bytes != bytes)
      throw GraphError("graph node " + std::to_string(replay_cursor_ - 1) +
                       ": replayed arena allocation of " + std::to_string(bytes) +
                       " B != captured " + std::to_string(node.alloc_bytes) +
                       " B — the step is not address-stable");
  }
  return alloc_fault(current_range());
}

bool Device::alloc_fault(const std::string& range) {
  return fault_ != nullptr && fault_->should_fail_alloc(range);
}

void Device::charge_alloc(bool cache_hit) {
  stats_.alloc_events += 1;
  if (graph_phase_ == GraphPhase::kReplay) {
    // A replayed graph has its addresses baked in: a cache-hit is pure host
    // bookkeeping (free — the device never sees it), and an actual device
    // malloc means the address set changed under the graph.
    if (!cache_hit)
      throw GraphError(
          "device malloc during graph replay — the captured step is not "
          "address-stable; capture is only safe over a pre-reserved arena");
    return;
  }
  if (graph_phase_ == GraphPhase::kCapture && !cache_hit) {
    // cudaMalloc inside a stream capture is illegal — this is the allocator
    // stall that makes the dynamic caching allocator capture-unsafe.
    poison_capture("allocator stall (device malloc) during capture");
  }
  const double us = cache_hit ? profile_.cached_alloc_us : profile_.malloc_us;
  stats_.overhead_us += us;
  stats_.alloc_stall_us += us;
  clock_us_ += us;
  attribute(us);
}

void Device::charge_free() {
  stats_.alloc_events += 1;
  if (graph_phase_ == GraphPhase::kReplay) {
    throw GraphError(
        "device free during graph replay — the captured step is not "
        "address-stable");
  }
  if (graph_phase_ == GraphPhase::kCapture) {
    poison_capture("allocator stall (device free) during capture");
  }
  const double us = profile_.free_us;
  stats_.overhead_us += us;
  stats_.alloc_stall_us += us;
  clock_us_ += us;
  attribute(us);
}

void Device::on_memory_change(int64_t bytes_in_use) {
  if (record_timeline_) timeline_.record_memory(clock_us_, bytes_in_use);
}

void Device::begin_capture() {
  LS2_CHECK(graph_phase_ == GraphPhase::kNone)
      << "begin_capture while a capture or replay is in progress";
  capture_ = StepGraph{};
  capture_ops_.clear();
  capture_poisoned_ = false;
  graph_phase_ = GraphPhase::kCapture;
}

size_t Device::GraphNodeHash::operator()(const GraphNode& n) const {
  const std::hash<double> hd;
  const std::hash<int64_t> hi;
  size_t h = std::hash<std::string>()(n.desc.name);
  auto mix = [&h](size_t v) { h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2); };
  mix(static_cast<size_t>(n.kind));
  mix(hi(n.desc.bytes_read));
  mix(hi(n.desc.bytes_written));
  mix(hd(n.desc.flops));
  mix(hd(n.exec_us));
  mix(hd(n.comm_us));
  mix(hi(n.alloc_bytes));
  mix(std::hash<std::string>()(n.range));
  return h;
}

void Device::capture_node(GraphNode node) {
  auto [it, inserted] =
      capture_ops_.try_emplace(std::move(node), static_cast<uint32_t>(capture_.ops.size()));
  if (inserted) capture_.ops.push_back(it->first);
  capture_.order.push_back(it->second);
}

StepGraph Device::end_capture() {
  LS2_CHECK(graph_phase_ == GraphPhase::kCapture) << "end_capture without capture";
  static std::atomic<uint64_t> next_graph_id{1};
  graph_phase_ = GraphPhase::kNone;
  capture_ops_.clear();
  capture_.valid = !capture_poisoned_;
  capture_.id = next_graph_id.fetch_add(1, std::memory_order_relaxed);
  return std::move(capture_);
}

void Device::poison_capture(const std::string& reason) {
  if (graph_phase_ != GraphPhase::kCapture || capture_poisoned_) return;
  capture_poisoned_ = true;
  capture_.poison_reason = reason;
}

void Device::begin_replay(const StepGraph& graph) {
  LS2_CHECK(graph_phase_ == GraphPhase::kNone)
      << "begin_replay while a capture or replay is in progress";
  if (!graph.valid)
    throw GraphError("begin_replay on an invalid (poisoned) graph: " +
                     graph.poison_reason);
  graph_phase_ = GraphPhase::kReplay;
  replay_ = &graph;
  replay_cursor_ = 0;
  // One dispatch for the whole step, instead of one per kernel.
  const double overhead = profile_.graph_launch_overhead_us;
  stats_.graph_replays += 1;
  stats_.graph_launch_us += overhead;
  stats_.overhead_us += overhead;
  clock_us_ += overhead;
  attribute(overhead);
}

void Device::end_replay() {
  LS2_CHECK(graph_phase_ == GraphPhase::kReplay) << "end_replay without replay";
  if (replay_cursor_ != replay_->size())
    throw GraphError("replay consumed " + std::to_string(replay_cursor_) +
                     " of " + std::to_string(replay_->size()) +
                     " graph nodes — the replayed step diverged from the capture");
  graph_phase_ = GraphPhase::kNone;
  replay_ = nullptr;
  replay_cursor_ = 0;
}

const GraphNode* Device::walk_replay() {
  LS2_CHECK(graph_phase_ == GraphPhase::kReplay) << "walk_replay without begin_replay";
  return walk(*replay_, replay_cursor_, /*eager=*/false);
}

const GraphNode* Device::walk_eager(const StepGraph& graph) {
  LS2_CHECK(graph_phase_ == GraphPhase::kNone)
      << "walk_eager while a capture or replay is in progress";
  if (!graph.valid)
    throw GraphError("walk_eager on an invalid (poisoned) graph: " + graph.poison_reason);
  size_t cursor = 0;
  return walk(graph, cursor, /*eager=*/true);
}

std::vector<Device::WalkSlot>& Device::walk_slots(const StepGraph& graph) {
  if (graph.id == 0) walk_slots_.erase(0);  // never captured: nothing to key on
  auto [it, created] = walk_slots_.try_emplace(graph.id);
  if (created) {
    for (size_t i = 0; i < graph.size(); ++i) {
      const GraphNode::Kind kind = graph.node(i).kind;
      if (kind == GraphNode::Kind::kCommEnqueue || kind == GraphNode::Kind::kCommWait) {
        walk_slots_.erase(it);
        throw GraphError("walk: graph node " + std::to_string(i) +
                         " is a comm operation — a graph with comm nodes must be "
                         "replayed host-driven");
      }
    }
    it->second.assign(graph.ops.size(), WalkSlot{});
  }
  return it->second;
}

const GraphNode* Device::walk(const StepGraph& graph, size_t& cursor, bool eager) {
  std::vector<WalkSlot>& slots = walk_slots(graph);
  while (cursor < graph.order.size()) {
    const uint32_t op = graph.order[cursor++];
    const GraphNode& node = graph.ops[op];
    if (node.kind == GraphNode::Kind::kAlloc) {
      if (alloc_fault(node.range)) return &node;
      continue;
    }
    WalkSlot& slot = slots[op];
    if (slot.kernel == nullptr) slot.kernel = &per_kernel_[node.desc.name];
    ++walked_launches_;
    const double charged =
        eager ? charge_eager(node.desc, node.desc.name, node.exec_us, *slot.kernel)
              : charge_replayed(node.desc, node.desc.name, node.exec_us, *slot.kernel);
    if (!node.range.empty()) {
      if (slot.range == nullptr) slot.range = &range_times_[node.range];
      *slot.range += charged;
    }
  }
  return nullptr;
}

void Device::abort_graph() noexcept {
  graph_phase_ = GraphPhase::kNone;
  replay_ = nullptr;
  replay_cursor_ = 0;
  capture_ = StepGraph{};
  capture_ops_.clear();
  capture_poisoned_ = false;
}

namespace {
const char* node_kind_name(GraphNode::Kind kind) {
  switch (kind) {
    case GraphNode::Kind::kKernel: return "a kernel launch";
    case GraphNode::Kind::kCommEnqueue: return "a comm enqueue";
    case GraphNode::Kind::kCommWait: return "a comm wait";
    case GraphNode::Kind::kAlloc: return "an arena allocation";
  }
  return "unknown";
}
}  // namespace

const GraphNode& Device::consume_node(GraphNode::Kind kind, const std::string* name,
                                      const KernelDesc* cost) {
  if (replay_cursor_ >= replay_->size())
    throw GraphError("replayed step issued more operations than the captured graph (" +
                     std::to_string(replay_->size()) + " nodes): extra " +
                     node_kind_name(kind));
  const GraphNode& node = replay_->node(replay_cursor_++);
  if (node.kind != kind)
    throw GraphError("graph node " + std::to_string(replay_cursor_ - 1) + " is " +
                     node_kind_name(node.kind) + " but the replayed step issued " +
                     node_kind_name(kind));
  if (name != nullptr) {
    if (!(node.desc.name == *name && node.desc.bytes_read == cost->bytes_read &&
          node.desc.bytes_written == cost->bytes_written && node.desc.flops == cost->flops))
      throw GraphError("graph node " + std::to_string(replay_cursor_ - 1) + " ('" +
                       node.desc.name + "') does not match replayed launch '" +
                       *name +
                       "' — the step is not static (did the batch shape "
                       "change?); graph capture requires fixed shapes, like "
                       "real CUDA Graphs");
  }
  return node;
}

double Device::range_time_us(const std::string& range) const {
  auto it = range_times_.find(range);
  return it == range_times_.end() ? 0.0 : it->second;
}

double Device::utilization() const {
  const double total = stats_.busy_us + stats_.overhead_us;
  return total <= 0 ? 1.0 : stats_.busy_us / total;
}

void Device::reset() {
  clock_us_ = 0;
  comm_clock_us_ = 0;
  charge_scale_ = 1.0;
  charge_scale_stack_.clear();
  stats_ = DeviceStats{};
  per_kernel_.clear();
  range_times_.clear();
  for (RangeFrame& f : range_stack_) f.slot = nullptr;
  walk_slots_.clear();
  host_launches_ = 0;
  walked_launches_ = 0;
  timeline_.clear();
  abort_graph();
}

void Device::push_range(const std::string& name) { range_stack_.push_back({name}); }

void Device::pop_range() {
  LS2_CHECK(!range_stack_.empty()) << "pop_range with empty stack";
  range_stack_.pop_back();
}

void Device::attribute(double us) {
  if (range_stack_.empty()) return;
  RangeFrame& f = range_stack_.back();
  if (f.slot == nullptr) f.slot = &range_times_[f.name];
  *f.slot += us;
}

}  // namespace ls2::simgpu
