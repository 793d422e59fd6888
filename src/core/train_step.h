// One timed training step: the four stages of §II-B (forward, backward,
// synchronize, update), each attributed via device ranges — this is what
// regenerates Fig. 3 and every end-to-end speedup figure.
//
// The step is a three-lane pipeline. Compute (zero-grad, forward, backward,
// update) runs on the compute stream; gradient synchronization runs on the
// communication stream. With `cluster.overlap` (the default), the flat
// gradient buffer is partitioned into size-capped buckets in grad-ready
// order (dist/bucket.h) and each bucket's ring all-reduce is enqueued as
// soon as the layers owning it finish their backward — so most of the
// communication is hidden under backward. With `cluster.pipeline_update`
// (also the default), the third lane kicks in: as each bucket's all-reduce
// lands, that bucket's optimizer update (`Optimizer::step_range`) is
// launched on the compute stream immediately — update work that used to sit
// serially after the full comm drain now overlaps the remaining transfers,
// and only the tail bucket's wait + update stay fully exposed.
// `StepTimes::sync_us` is the exposed, critical-path wait; hidden comm is
// `sync_overlapped_us`, and the update time that ran while the comm stream
// was still draining is `update_overlapped_us` (informational — it is
// contained in `update_us`; the four stages always sum to the step total).
//
// Pipeline parallelism is the same step with m = cluster.microbatches
// forward/backward passes: a pp_detail::PpStep (core/pp_step.h) slices the
// batch, times every stage chunk, and replaces the comm-stream sync above
// with analytic per-stage lanes (DESIGN.md §9).
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pp_step.h"
#include "core/session.h"
#include "core/step_times.h"
#include "dist/allreduce.h"
#include "dist/bucket.h"
#include "obs/span.h"
#include "optim/optimizer.h"

namespace ls2::core {

/// Zero all gradients with charged device kernels: one launch over the flat
/// workspace under LightSeq2, one per tensor for the baselines.
inline void zero_grads_charged(Session& session, layers::ParamRegistry& params) {
  LS2_CHECK(params.materialized()) << "zero_grads_charged before materialize";
  const bool flat = params.contiguous();
  auto zero = [&](Tensor g) {
    simgpu::KernelDesc d;
    d.name = flat ? "ls2.zero_grad" : "torch.zero_grad";
    d.bytes_written = static_cast<int64_t>(g.bytes());
    d.mem_efficiency = flat ? 0.9 : 0.7;
    session.device().launch(d, [&] { g.zero_(); });
  };
  if (flat) return zero(params.flat_grads());
  for (int i = 0; i < params.size(); ++i) zero(params.grad({i}));
}

/// Run one training step on this device, which simulates rank 0; other
/// replicas are assumed identical (their compute time equals ours; the
/// all-reduce time comes from the ring model). Returns per-stage times and
/// the forward result (loss/accuracy struct of the model).
template <typename ModelT, typename BatchT>
auto train_step(Session& session, ModelT& model, const BatchT& batch,
                optim::Optimizer& trainer, const dist::ClusterConfig& cluster = {})
    -> std::pair<StepTimes, decltype(model.forward(session.ctx(), batch))> {
  cluster.validate();
  auto& dev = session.device();
  layers::LayerContext& ctx = session.ctx();
  const int pp = cluster.pipeline_parallel;
  StepTimes times;
  // Under PP, rank 0's trace lane carries the reconstructed 1F1B chunks;
  // device-clock stage spans would break their nesting, so they only attribute.
  const int lane = pp > 1 ? obs::SpanScope::kNoTrace : 0;
  // Telemetry envelope: the whole-step trace span. attribute=false — it
  // must NOT become a device range, or it would absorb the attribution of
  // the stage ranges below (innermost wins) and change the Fig. 3 sums.
  obs::SpanScope step_span(dev, "step", lane, /*tid=*/0, /*attribute=*/false);
  // Hybrid data x model parallel composition: the model's TP collectives
  // charge through the session context's ProcessGroup, and the gradient
  // ring below runs over the dp_size() replicas of this shard. The three
  // TP settings (cluster, session ProcessGroup, model config) must agree
  // in BOTH directions — a half-wired setup would silently mis-account
  // the very numbers this step reports.
  dist::ProcessGroup* tp_group = ctx.tp_group;
  LS2_CHECK((tp_group != nullptr ? tp_group->tp_size() : 1) == cluster.tensor_parallel)
      << "cluster.tensor_parallel = " << cluster.tensor_parallel
      << " but the session's ProcessGroup is "
      << (tp_group ? std::to_string(tp_group->tp_size()) : std::string("absent"))
      << " — install a matching group as session.ctx().tp_group";
  if constexpr (requires { model.config().tp.size; }) {
    LS2_CHECK(model.config().tp.size == cluster.tensor_parallel)
        << "model was built with tp.size = " << model.config().tp.size
        << " but cluster.tensor_parallel = " << cluster.tensor_parallel;
  }
  const dist::ProcessGroup::Stats tp0 =
      tp_group ? tp_group->stats() : dist::ProcessGroup::Stats{};
  std::optional<pp_detail::PpStep> pipe;
  if constexpr (requires { model.pp_configure(pp); }) {
    if (pp > 1) pipe.emplace(session, model, batch, cluster);
  }
  LS2_CHECK(pp == 1 || pipe) << "model does not implement pp_configure — pipeline "
                                "parallelism needs a stage partition";
  // Per-step prologue: advances the RNG step offset (the per-step graph
  // parameter) and picks eager / capture / replay for the static region.
  const GraphAction graph_action = session.begin_step();
  // The DP-sync model is selected by pp. At pp = 1 the bucket rings run on
  // the device comm stream, where they queue behind the TP collectives and
  // faults stretch the real transfers. At pp > 1 the device runs every
  // stage back to back, so PpStep::finish lays analytic per-stage lanes.
  const bool sync_needed = cluster.dp_size() > 1;
  const bool overlap = !pipe && sync_needed && cluster.overlap;
  const bool pipeline = overlap && cluster.pipeline_update;
  if (!pipe && sync_needed) {
    times.wire_bytes = dist::wire_payload_bytes(
        static_cast<int64_t>(model.params().flat_grad_bytes()), model.params().dtype(),
        cluster.wire_dtype);
    times.sync_blocking_us = dist::ring_allreduce_us(times.wire_bytes, cluster, dev.profile());
  }

  // The static region — zero-grad, forward, backward, and the comm enqueues
  // fired from backward — is what gets captured into / replayed from the
  // step graph. Everything after backward (bucket waits, optimizer ranges,
  // scaler decisions) is dynamic and stays outside the graph. The guard
  // abandons a half-open capture/replay if the step unwinds (e.g. OOM).
  struct GraphRegionGuard {
    simgpu::Device& dev;
    bool active = false;
    ~GraphRegionGuard() {
      if (active) dev.abort_graph();
    }
  } graph_guard{dev};

  // Stage 0 — zero gradients ONCE (own device range; charged to update
  // below); microbatch gradients accumulate on top. The graph region opens
  // INSIDE the zero_grad range so the one-time graph-launch overhead of a
  // replay is attributed there — both the StepTimes stage windows and the
  // per-range (Fig. 3) sums still cover the whole step.
  const double tz = dev.clock_us();
  {
    obs::SpanScope r(dev, "zero_grad", lane);
    if (graph_action == GraphAction::kCapture) {
      dev.begin_capture();
      graph_guard.active = true;
    } else if (graph_action == GraphAction::kReplay) {
      dev.begin_replay(*session.step_graph());
      graph_guard.active = true;
      times.replayed = true;
    }
    zero_grads_charged(session, model.params());
  }
  const double t0 = dev.clock_us();
  times.zero_grad_us = t0 - tz;

  // The scheduler owns the registry's grad-ready callback for this step and
  // enqueues each completed bucket's all-reduce on the comm stream. With
  // pipelining it also reports each bucket's completion time, so the update
  // lane below can start that bucket's optimizer work the moment it lands.
  struct LandedBucket {
    size_t byte_begin, byte_end;
    double done_us;
  };
  std::vector<LandedBucket> landed;
  std::optional<dist::OverlapScheduler> scheduler;
  if (overlap) {
    scheduler.emplace(model.params(), dev, cluster, session.metrics());
    if (pipeline) {
      scheduler->set_bucket_done_callback(
          [&landed](const dist::GradBucket& b, double done_us) {
            landed.push_back({b.byte_begin, b.byte_end, done_us});
          });
    }
  }

  // Stages 1 + 2 — forward and backward, once per microbatch (the whole
  // batch, unsliced, at pp = 1). The criterion multiplies the trainer's
  // expected loss scale into the backward seed (mixed-precision
  // discipline); the trainer divides it back out in the update. At pp = 1,
  // bucket all-reduces launch as layers report their gradients final.
  ctx.loss_scale = trainer.loss_scale();
  decltype(model.forward(ctx, batch)) result{};
  double t1 = t0;
  for (int j = 0; j < (pipe ? cluster.microbatches : 1); ++j) {
    const BatchT mb = pipe ? pipe->microbatch(batch, j) : batch;
    {
      obs::SpanScope r(dev, "forward", lane);
      result = model.forward(ctx, mb);
      if (pipe) pipe->close_chunk();
    }
    t1 = dev.clock_us();
    {
      obs::SpanScope r(dev, "backward", lane);
      model.backward(ctx);
      if (pipe) pipe->close_chunk();
    }
  }
  const double t2 = dev.clock_us();

  // Close the static region: deposit the captured graph (or its poison
  // diagnostic) with the session, or finish consuming the replayed one. The
  // guard is deactivated only AFTER the close succeeds — end_replay throws
  // on a node-count mismatch, and the device must not be left mid-replay.
  if (graph_action == GraphAction::kCapture) {
    session.store_graph(dev.end_capture());
    graph_guard.active = false;
  } else if (graph_action == GraphAction::kReplay) {
    dev.end_replay();
    graph_guard.active = false;
  }

  // Stage windows on the device clock; under PP, finish() replaces them
  // with stage 0's chunks of the reconstructed 1F1B lane.
  times.forward_us = t1 - t0;
  times.backward_us = t2 - t1;
  if (pipe) {
    pipe->finish(times, trainer, result);
  } else if (pipeline) {
    // Stages 3+4 interleaved — per-bucket: wait for the bucket's transfer
    // (exposed sync), then run its optimizer range update (update lane,
    // overlapping the comm stream's later transfers).
    trainer.begin_step();
    {
      obs::SpanScope r(dev, "synchronize");
      scheduler->finish();  // tail buckets: ready only now that backward ended
    }
    const double comm_drain_us = dev.comm_clock_us();
    double update_work_us = 0;
    for (const LandedBucket& b : landed) {
      dev.wait_comm_until(b.done_us, "synchronize");
      obs::SpanScope r(dev, "update");
      const double u0 = dev.clock_us();
      trainer.step_range(ctx.kern, b.byte_begin, b.byte_end);
      const double u1 = dev.clock_us();
      update_work_us += u1 - u0;
      times.update_overlapped_us += std::max(0.0, std::min(u1, comm_drain_us) - u0);
    }
    dev.sync_comm("synchronize");  // residual drain (normally zero)
    trainer.end_step();
    const double enqueued_us = scheduler->enqueued_us();
    scheduler.reset();
    const double t4 = dev.clock_us();
    times.sync_us = (t4 - t2) - update_work_us;
    times.sync_overlapped_us = std::max(0.0, enqueued_us - times.sync_us);
    times.update_us = update_work_us + times.zero_grad_us;
  } else {
    // Stage 3 — synchronize: drain the comm stream (overlapped) or run one
    // blocking ring over the whole gradient buffer.
    {
      obs::SpanScope r(dev, "synchronize");
      if (overlap) {
        scheduler->finish();  // tail buckets: ready only now that backward ended
        const double exposed = dev.sync_comm("synchronize");
        times.sync_overlapped_us = std::max(0.0, scheduler->enqueued_us() - exposed);
      } else {
        // The blocking ring (and the DP=1 no-op) never touches the comm
        // stream, so the failure-detection sync point must fire explicitly.
        dev.at_sync_point("synchronize");
        if (sync_needed) {
          dev.advance(times.sync_blocking_us, /*busy=*/true, "synchronize");
        }
      }
    }
    scheduler.reset();
    const double t3 = dev.clock_us();

    // Stage 4 — update.
    {
      obs::SpanScope r(dev, "update");
      trainer.step(ctx.kern);
    }
    const double t4 = dev.clock_us();
    times.sync_us = t3 - t2;
    times.update_us = (t4 - t3) + times.zero_grad_us;
  }
  // TP epilogue: mirror the update onto the simulated peer shards (host
  // bookkeeping on a private device — charges nothing here; a no-op when
  // TP is off or peers are not simulated).
  if constexpr (requires { model.tp_finish_step(trainer); }) {
    model.tp_finish_step(trainer);
  }
  pipe.reset();  // frees the 1F1B residency stand-ins before the arena rewinds
  session.end_step();

  if (tp_group != nullptr) {
    const dist::ProcessGroup::Stats tp1 = tp_group->stats();
    times.tp_comm_us = tp1.comm_us - tp0.comm_us;
    times.tp_exposed_us = tp1.exposed_us - tp0.exposed_us;
    times.tp_bytes = tp1.bytes - tp0.bytes;
  }
  if (obs::MetricsRegistry* reg = session.metrics()) {
    reg->counter("train.steps") += 1;
    if (times.replayed) reg->counter("train.replayed_steps") += 1;
    reg->counter("train.wire_bytes") += times.wire_bytes;
    reg->histogram("train.step_us").record(times.total_us());
    reg->histogram("train.forward_us").record(times.forward_us);
    reg->histogram("train.backward_us").record(times.backward_us);
    reg->histogram("train.sync_us").record(times.sync_us);
    reg->histogram("train.update_us").record(times.update_us);
    reg->gauge("train.sync_overlapped_us") = times.sync_overlapped_us;
    reg->gauge("train.sync_blocking_us") = times.sync_blocking_us;
    if (pp > 1) {
      reg->histogram("train.pp.bubble_us").record(times.pp_bubble_us);
      reg->gauge("train.pp.comm_us") = times.pp_comm_us;
      reg->gauge("train.pp.exposed_us") = times.pp_exposed_us;
    }
  }
  return {times, result};
}

}  // namespace ls2::core
