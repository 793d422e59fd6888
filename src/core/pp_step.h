// Pipeline-parallel pieces of core::train_step (DESIGN.md §9): the 1F1B
// engine it drives when cluster.pipeline_parallel > 1.
//
// The simulator executes the FULL model on the session device — that is
// what keeps the numerics bitwise-checkable against the single-device run —
// while the pipeline is reconstructed analytically. Per step:
//
//   1. The global batch is sliced into `cluster.microbatches` equal
//      microbatches along dim 0. Each runs a complete forward + backward on
//      the session context with kc.microbatch = j, so every RNG-drawing
//      kernel offsets into exactly the mask slice the full-batch launch
//      would have drawn, and gradients ACCUMULATE across microbatches in
//      ascending order — bitwise the full-batch reduction (the kernels
//      accumulate float-from-destination in ascending element order).
//   2. Models mark every stage boundary via LayerContext::pp_enter; the
//      engine closes the previous (stage, microbatch, direction) chunk at
//      the device clock, giving measured per-chunk durations. The boundary
//      hook also swaps the activation allocator: stage-0 chunks allocate
//      from the session arena (the simulated rank-0 memory), later stages
//      from a private remote-stage allocator on a throwaway device — so
//      rank 0's footprint holds only what it would actually host, plus
//      min(pp, m) - 1 reserved stand-ins for the extra in-flight
//      microbatch activations a real 1F1B stage 0 retains.
//   3. dist::solve_1f1b reconstructs when each chunk would run on a real
//      pp-deep pipeline, with boundary p2p sends from the ProcessGroup's
//      point-to-point cost model. StepTimes reports the RANK-0 lane:
//      stage-0 compute in forward/backward_us, schedule idle in
//      pp_bubble_us, exposed p2p in pp_exposed_us.
//   4. Data-parallel sync runs per stage on ANALYTIC comm lanes: the device
//      runs every stage back to back, so its one comm stream cannot stand
//      in for pp of them. The last microbatch's grad-ready notifications,
//      offset into each stage's final backward chunk, are chopped into
//      size-capped buckets that ring on their stage's lane. A tied
//      embedding table (GPT-2, tied Transformer) is final on the LAST stage
//      but lives on stage 0, so one extra p2p hop gates its stage-0 bucket.
//      Optimizer updates run for real (step_range is order-independent);
//      stage 0's waits and updates are pipelined per bucket into sync_us /
//      update_us like the pp = 1 pipelined path.
//
// Graph capture/replay wraps the whole m-microbatch region: remote-stage
// allocations charge the remote device, so the session capture sees only
// arena traffic and stays capture-safe; microbatch RNG offsets are baked
// into launch closures by value, so a replayed step re-executes each
// microbatch's own mask slice bitwise.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/step_times.h"
#include "dist/allreduce.h"
#include "dist/bucket.h"
#include "dist/pipeline.h"
#include "dist/process_group.h"
#include "layers/pp.h"
#include "memory/caching_allocator.h"
#include "optim/optimizer.h"
#include "simgpu/fault.h"

namespace ls2::core::pp_detail {

/// Cross-step engine state, owned by Session::pp_state.
struct PpState {
  /// Throwaway device + allocator backing stages >= 1's activations: their
  /// alloc traffic must neither count against rank-0 memory nor poison a
  /// session graph capture. kVirtual backing in model-only mode lets
  /// paper-scale stages "allocate" without committing host memory.
  std::unique_ptr<simgpu::Device> remote_dev;
  std::unique_ptr<mem::CachingAllocator> remote_alloc;
  double trace_base_us = 0;  ///< virtual time base for per-step trace spans
};

// --- batch plumbing -------------------------------------------------------
// The four batch structs are plain bags of dim-0-major tensors; slicing a
// microbatch is a set of dim-0 views (no copies). Distinguishing fields:
// MtBatch has src_ids, ImageBatch has patches, LmBatch has targets,
// ClsBatch has lens+labels.

template <typename BatchT>
int64_t pp_batch_rows(const BatchT& b) {
  if constexpr (requires { b.src_ids; }) {
    return b.src_ids.shape()[0];
  } else if constexpr (requires { b.patches; }) {
    return b.patches.shape()[0];
  } else {
    return b.ids.shape()[0];
  }
}

template <typename BatchT>
BatchT pp_slice_batch(const BatchT& b, int64_t lo, int64_t hi) {
  BatchT s = b;
  if constexpr (requires { b.src_ids; }) {  // models::MtBatch
    s.src_ids = b.src_ids.slice(lo, hi);
    s.tgt_in = b.tgt_in.slice(lo, hi);
    s.tgt_out = b.tgt_out.slice(lo, hi);
    s.src_lens = b.src_lens.slice(lo, hi);
    s.tgt_lens = b.tgt_lens.slice(lo, hi);
  } else if constexpr (requires { b.patches; }) {  // models::ImageBatch
    s.patches = b.patches.slice(lo, hi);
    s.labels = b.labels.slice(lo, hi);
  } else if constexpr (requires { b.targets; }) {  // models::LmBatch
    s.ids = b.ids.slice(lo, hi);
    s.targets = b.targets.slice(lo, hi);
  } else {  // models::ClsBatch
    s.ids = b.ids.slice(lo, hi);
    s.lens = b.lens.slice(lo, hi);
    s.labels = b.labels.slice(lo, hi);
  }
  return s;
}

/// The GLOBAL loss denominator a microbatch's criterion backward must use:
/// non-pad target tokens for token criteria (counted exactly as
/// CriterionLayer::forward counts them), the batch size for classification.
template <typename BatchT>
int64_t pp_global_denominator(const BatchT& b, int32_t pad_id, bool execute) {
  auto count_valid = [&](const Tensor& t) -> int64_t {
    if (!execute) return t.numel();  // timing-only mode: shape bookkeeping
    int64_t valid = 0;
    for (float v : t.to_vector()) {
      if (static_cast<int32_t>(v) != pad_id) ++valid;
    }
    return valid;
  };
  if constexpr (requires { b.tgt_out; }) {
    return count_valid(b.tgt_out);
  } else if constexpr (requires { b.targets; }) {
    return count_valid(b.targets);
  } else {
    return pp_batch_rows(b);
  }
}

/// One pipeline-parallel step. While alive it owns the layer context's PP
/// state — the stage-boundary hook, the loss carries, the global
/// denominator, the microbatch RNG offset — and the destructor restores it.
class PpStep {
 public:
  template <typename ModelT, typename BatchT>
  PpStep(Session& session, ModelT& model, const BatchT& batch,
         const dist::ClusterConfig& cluster)
      : session_(session),
        dev_(session.device()),
        ctx_(session.ctx()),
        pp_(cluster.pipeline_parallel),
        m_(cluster.microbatches),
        pgroup_(cluster),
        plan_(model.pp_configure(pp_)),
        params_(model.params()),
        spans_(layers::stage_byte_spans(plan_, params_)),
        fdur_(su(pp_), std::vector<double>(su(m_), 0.0)),
        bdur_(fdur_),
        fwd_bytes_(su(pp_ - 1), 0),
        bwd_bytes_(fwd_bytes_),
        local_act_(ctx_.activation_allocator()),
        act_base_(session.activations().bytes_in_use()) {
    const int64_t rows = pp_batch_rows(batch);
    LS2_CHECK(rows % m_ == 0 && rows >= m_)
        << "batch size " << rows << " must split into " << m_ << " equal microbatches";
    mb_rows_ = rows / m_;
    LS2_CHECK(plan_.stages == pp_) << "plan stages " << plan_.stages << " vs pp " << pp_;
    size_t covered = 0;
    for (const auto& stage_spans : spans_) {
      for (const auto& [lo, hi] : stage_spans) covered += hi - lo;
    }
    LS2_CHECK(covered == params_.flat_grad_bytes())
        << "stage partition covers " << covered << " of " << params_.flat_grad_bytes()
        << " gradient bytes";
    if (!session.pp_state) {
      auto state = std::make_shared<PpState>();
      state->remote_dev = std::make_unique<simgpu::Device>(dev_.profile(), dev_.mode());
      state->remote_alloc = std::make_unique<mem::CachingAllocator>(
          *state->remote_dev, dev_.mode() == simgpu::ExecMode::kExecute
                                  ? mem::DeviceAllocator::Backing::kMalloc
                                  : mem::DeviceAllocator::Backing::kVirtual);
      session.pp_state = std::move(state);
      for (int s = 0; s < pp_ && session.config().record_timeline; ++s) {
        const int pid = pgroup_.rank_of(0, s, 0);  // one trace process per rank
        dev_.timeline().name_process(
            pid, "rank " + std::to_string(pid) + " (stage " + std::to_string(s) + ")");
      }
    }

    int32_t pad_id = 0;
    if constexpr (requires { model.config().pad_id; }) pad_id = model.config().pad_id;
    denom_ = pp_global_denominator(batch, pad_id, dev_.mode() == simgpu::ExecMode::kExecute);
    hooks_.enter = [this](int stage, bool forward, int64_t payload) {
      enter(stage, forward, payload);
    };
    ctx_.pp = &hooks_;
    ctx_.pp_loss_carry = &loss_carry_;
    ctx_.pp_metric_carry = &metric_carry_;
    ctx_.pp_denominator = denom_;
  }

  ~PpStep() {
    params_.clear_grad_ready_callback();
    ctx_.pp = nullptr;
    ctx_.pp_loss_carry = nullptr;
    ctx_.pp_metric_carry = nullptr;
    ctx_.pp_denominator = 0;
    ctx_.pp_flush = false;
    ctx_.kern.microbatch = 0;
    ctx_.set_activation_allocator(local_act_);
  }
  PpStep(const PpStep&) = delete;
  PpStep& operator=(const PpStep&) = delete;

  /// Microbatch j of `batch`, with the context set up to run it. Callers
  /// run j = 0..m-1 in ascending order: the accumulation order that is
  /// bitwise the full-batch reduction.
  template <typename BatchT>
  BatchT microbatch(const BatchT& batch, int j) {
    cur_mb_ = j;
    ctx_.kern.microbatch = static_cast<uint64_t>(j);
    ctx_.kern.dropout_site = 1;  // every microbatch walks the full batch's site order
    ctx_.pp_flush = (j == m_ - 1);  // layers flush deferred tied-table work
    if (j == m_ - 1) {
      // Gradients are FINAL only on the last microbatch: record each
      // notification's stage + offset into that stage's backward chunk,
      // the inputs of the per-stage DP bucket schedule in finish().
      params_.set_grad_ready_callback([this](const layers::ParamRange& range) {
        if (range.empty()) return;
        const size_t lo = params_.grad_byte_span(range.begin).first;
        const size_t hi = params_.grad_byte_span(range.end - 1).second;
        const int stage = layers::stage_of_byte(spans_, lo);
        LS2_CHECK(stage >= 0) << "grad-ready range outside the stage plan";
        notified_.push_back({stage, lo, hi, dev_.clock_us() - chunk_begin_});
      });
    }
    chunk_open_ = false;  // the model's pp_enter(0, true) opens stage 0
    return pp_slice_batch(batch, j * mb_rows_, (j + 1) * mb_rows_);
  }

  /// Close the open stage chunk at the device clock; called after each
  /// microbatch's forward and after its backward.
  void close_chunk() {
    if (chunk_open_) {
      (cur_fwd_ ? fdur_ : bdur_)[su(cur_stage_)][su(cur_mb_)] +=
          dev_.clock_us() - chunk_begin_;
    }
    chunk_open_ = false;
  }

  /// Stages 3 + 4 after the last microbatch: reconstruct the 1F1B lanes
  /// from the measured chunks, lay every stage's DP bucket rings on its
  /// own analytic comm lane, run the real optimizer updates, and record
  /// the per-rank trace lanes. Fills `times` for the rank-0 lane and the
  /// result's global token count.
  template <typename ResultT>
  void finish(StepTimes& times, optim::Optimizer& trainer, ResultT& result) {
    if constexpr (requires { result.tokens; }) {
      result.tokens = denom_;  // the last microbatch's carry holds the global sum
    }
    const dist::ClusterConfig& cluster = pgroup_.cluster();
    // --- reconstruct the 1F1B schedule from the measured chunks ---
    dist::PipelineScheduleInput sin{pp_, m_, fdur_, bdur_, {}, {}};
    for (int s = 0; s + 1 < pp_; ++s) {
      sin.fwd_p2p_us.push_back(pgroup_.stage_send_us(fwd_bytes_[su(s)], s, dev_.profile()));
      sin.bwd_p2p_us.push_back(pgroup_.stage_send_us(bwd_bytes_[su(s)], s, dev_.profile()));
    }
    const dist::PipelineSchedule sched = dist::solve_1f1b(sin);
    times.forward_us = std::accumulate(fdur_[0].begin(), fdur_[0].end(), 0.0);
    times.backward_us = std::accumulate(bdur_[0].begin(), bdur_[0].end(), 0.0);
    times.pp_bubble_us = sched.lanes[0].bubble_us;
    times.pp_exposed_us = sched.lanes[0].comm_idle_us;
    times.pp_comm_us = m_ * (sin.fwd_p2p_us[0] + sin.bwd_p2p_us[0]);

    // Every lane's 1F1B slot order ends with the last microbatch's backward.
    auto last_backward = [&](int s) -> const dist::PipelineChunk& {
      return sched.lanes[su(s)].chunks.back();
    };

    // Tied embedding table: declared on stage 0, last written by the final
    // stage's criterion backward — its accumulated gradient rides one extra
    // p2p hop home before stage 0's bucket can ring.
    double tied_arrival = -1.0;
    size_t tied_lo = 0, tied_hi = 0;
    if (plan_.tied_table_bytes > 0) {
      const double hop =
          pgroup_.send_us(plan_.tied_table_bytes, pgroup_.rank_of(0, pp_ - 1, 0),
                          pgroup_.rank_of(0, 0, 0), dev_.profile());
      tied_arrival = last_backward(pp_ - 1).end_us + hop;
      times.pp_comm_us += hop;
      std::tie(tied_lo, tied_hi) = params_.grad_byte_span(plan_.tied_param.index);
    }

    // --- per-stage DP sync + pipelined range-granular update ---
    const bool sync_needed = cluster.dp_size() > 1;
    struct PpBucket {
      int stage;
      size_t lo, hi;
      double ready_us;
      double done_us = 0;  ///< ring completion on the stage's comm lane
    };
    std::vector<PpBucket> buckets;
    if (sync_needed) {
      const int64_t cap = dist::effective_bucket_bytes(cluster, dev_.profile());
      for (const NotifyEvent& e : notified_) {
        const double ready = last_backward(e.stage).begin_us + e.offset;
        PpBucket* back = buckets.empty() ? nullptr : &buckets.back();
        const bool adjacent =
            back && back->stage == e.stage && (e.hi == back->lo || e.lo == back->hi);
        if (adjacent && static_cast<int64_t>(std::max(back->hi, e.hi) -
                                             std::min(back->lo, e.lo)) <= cap) {
          back->lo = std::min(back->lo, e.lo);
          back->hi = std::max(back->hi, e.hi);
          back->ready_us = std::max(back->ready_us, ready);
        } else {
          buckets.push_back({e.stage, e.lo, e.hi, ready});
        }
      }
      for (PpBucket& bk : buckets) {
        if (tied_arrival >= 0 && bk.stage == 0 && bk.lo < tied_hi && tied_lo < bk.hi) {
          bk.ready_us = std::max(bk.ready_us, tied_arrival);
        }
      }
      size_t covered = 0;
      for (const PpBucket& bk : buckets) covered += bk.hi - bk.lo;
      LS2_CHECK(covered == params_.flat_grad_bytes())
          << "grad-ready notifications tile " << covered << " of "
          << params_.flat_grad_bytes() << " gradient bytes";
    } else {
      for (int s = 0; s < pp_; ++s) {
        for (const auto& [lo, hi] : spans_[su(s)]) buckets.push_back({s, lo, hi, 0.0});
      }
    }

    // Each stage is a different rank: its bucket rings serialize on its OWN
    // comm lane, independent of the other stages'.
    std::vector<double> comm_clock(su(pp_), 0.0);
    double ring0_us = 0;
    int64_t stage0_bytes = 0;
    for (const auto& [lo, hi] : spans_[0]) stage0_bytes += static_cast<int64_t>(hi - lo);
    // A stragglered link stretches every analytic DP ring this step, exactly
    // as Device::enqueue_comm stretches real comm-stream transfers.
    const double link_factor =
        dev_.fault_injector() != nullptr ? dev_.fault_injector()->comm_factor() : 1.0;
    if (sync_needed) {
      for (PpBucket& bk : buckets) {
        const int64_t wire = dist::wire_payload_bytes(
            static_cast<int64_t>(bk.hi - bk.lo), params_.dtype(), cluster.wire_dtype);
        const double ring =
            dist::ring_allreduce_us(wire, cluster, dev_.profile()) * link_factor;
        double& lane = comm_clock[su(bk.stage)];
        lane = std::max(lane, bk.ready_us) + ring;
        bk.done_us = lane;
        if (bk.stage == 0) {
          ring0_us += ring;
          times.wire_bytes += wire;
        }
      }
      times.sync_blocking_us = dist::ring_allreduce_us(
          dist::wire_payload_bytes(stage0_bytes, params_.dtype(), cluster.wire_dtype),
          cluster, dev_.profile());
    }

    // The DP sync is analytic (comm_clock lanes above, no device comm-stream
    // calls), so the failure-detection sync point fires explicitly here —
    // the boundary where averaged gradients materialize.
    dev_.at_sync_point("synchronize");

    // Updates execute for real over every stage's ranges (the numerics need
    // the whole model updated; step_range is order-independent), while the
    // StepTimes lane tracks only stage 0: wait for each stage-0 bucket's
    // ring, then its update — pipelined exactly like the pp = 1 path.
    trainer.begin_step();
    double cursor = last_backward(0).end_us;  // stage 0's compute lane ends its step
    const double comm_drain0 = comm_clock[0];
    double update0_us = 0;
    {
      simgpu::ScopedRange r(dev_, "update");
      for (const PpBucket& bk : buckets) {
        const double u0 = dev_.clock_us();
        trainer.step_range(ctx_.kern, bk.lo, bk.hi);
        const double dur = dev_.clock_us() - u0;
        if (bk.stage != 0) continue;
        if (sync_needed) {
          times.sync_us += std::max(0.0, bk.done_us - cursor);
          cursor = std::max(cursor, bk.done_us);
        }
        times.update_overlapped_us +=
            std::max(0.0, std::min(cursor + dur, comm_drain0) - cursor);
        cursor += dur;
        update0_us += dur;
      }
    }
    trainer.end_step();
    times.update_us = update0_us + times.zero_grad_us;
    times.sync_overlapped_us = std::max(0.0, ring0_us - times.sync_us);
    // Detection bookkeeping for the analytic lanes: stage 0's exposed DP
    // wait is what a watchdog would observe at this sync boundary.
    if (dev_.fault_injector() != nullptr) {
      dev_.fault_injector()->note_exposed_wait(times.sync_us, dev_.clock_us());
    }

    // --- named trace spans: the reconstructed per-rank 1F1B lanes, on a
    // virtual time base that advances per step ---
    if (session_.config().record_timeline) {
      double extent = std::max(sched.makespan_us, cursor);
      for (double lane : comm_clock) extent = std::max(extent, lane);
      simgpu::Timeline& tl = dev_.timeline();
      const double base = session_.pp_state->trace_base_us;
      tl.record_span(pgroup_.rank_of(0, 0, 0), 0, "step", base, base + extent);
      char name[64];
      for (int s = 0; s < pp_; ++s) {
        const int pid = pgroup_.rank_of(0, s, 0);
        for (const dist::PipelineChunk& c : sched.lanes[su(s)].chunks) {
          std::snprintf(name, sizeof(name), "s%d.mb%d.%s", s, c.microbatch,
                        c.forward ? "F" : "B");
          tl.record_span(pid, 0, name, base + c.begin_us, base + c.end_us);
          if (c.forward && s + 1 < pp_) {
            std::snprintf(name, sizeof(name), "s%d>s%d.mb%d.act", s, s + 1, c.microbatch);
            tl.record_span(pid, 1, name, base + c.end_us,
                           base + c.end_us + sin.fwd_p2p_us[su(s)]);
          } else if (!c.forward && s > 0) {
            std::snprintf(name, sizeof(name), "s%d>s%d.mb%d.grad", s, s - 1, c.microbatch);
            tl.record_span(pid, 1, name, base + c.end_us,
                           base + c.end_us + sin.bwd_p2p_us[su(s - 1)]);
          }
        }
      }
      session_.pp_state->trace_base_us = base + extent + 100.0;
    }
  }

 private:
  struct NotifyEvent {
    int stage;
    size_t lo, hi;
    double offset;  ///< into the stage's last backward chunk
  };

  static size_t su(int x) { return static_cast<size_t>(x); }

  /// The stage-boundary hook (LayerContext::pp_enter).
  void enter(int stage, bool forward, int64_t payload) {
    LS2_CHECK(stage >= 0 && stage < pp_) << "pp_enter stage " << stage;
    close_chunk();
    const double now = dev_.clock_us();
    if (cur_mb_ == 0) {  // microbatches are equal-sized: record payloads once
      if (forward && stage > 0) {
        fwd_bytes_[su(stage - 1)] = payload;
      } else if (!forward && stage + 1 < pp_) {
        bwd_bytes_[su(stage)] = payload;
      }
    }
    // Leaving stage 0 for the first time: one microbatch's stage-0
    // activation footprint is now live; a real 1F1B stage 0 holds
    // min(pp, m) such sets at its steady-state peak, so reserve the
    // difference for honest arena/capacity accounting.
    if (forward && stage == 1 && cur_mb_ == 0 && residency_.empty()) {
      const int64_t live = session_.activations().bytes_in_use() - act_base_;
      for (int i = std::min(pp_, m_) - 1; i > 0 && live > 0; --i) {
        residency_.push_back(Tensor::empty({live}, DType::kU8, local_act_));
      }
    }
    ctx_.set_activation_allocator(stage == 0 ? local_act_ : session_.pp_state->remote_alloc.get());
    cur_stage_ = stage;
    cur_fwd_ = forward;
    chunk_begin_ = now;
    chunk_open_ = true;
  }

  Session& session_;
  simgpu::Device& dev_;
  layers::LayerContext& ctx_;
  const int pp_, m_;
  // Rank math / p2p costs are pure functions of the cluster, so a local
  // group serves even when the caller installed none (pp without tp).
  dist::ProcessGroup pgroup_;
  const layers::PpPlan& plan_;
  layers::ParamRegistry& params_;
  const std::vector<std::vector<std::pair<size_t, size_t>>> spans_;
  // Measured chunk durations [stage][microbatch] and boundary payloads.
  std::vector<std::vector<double>> fdur_, bdur_;
  std::vector<int64_t> fwd_bytes_, bwd_bytes_;
  std::vector<NotifyEvent> notified_;
  BufferAllocator* const local_act_;
  const int64_t act_base_;
  int64_t mb_rows_ = 0, denom_ = 0;
  int cur_stage_ = 0, cur_mb_ = 0;
  bool cur_fwd_ = true, chunk_open_ = false;
  double chunk_begin_ = 0.0;
  std::vector<Tensor> residency_;  // stand-ins for in-flight 1F1B activations
  layers::PpHooks hooks_;
  double loss_carry_ = 0.0, metric_carry_ = 0.0;
};

}  // namespace ls2::core::pp_detail
