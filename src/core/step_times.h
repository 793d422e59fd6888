// Per-step stage times core::train_step reports (§II-B's four stages).
#pragma once

#include <cstdint>

namespace ls2::core {

struct StepTimes {
  double forward_us = 0;
  double backward_us = 0;
  double sync_us = 0;    ///< EXPOSED synchronize time (critical path)
  double update_us = 0;  ///< trainer step + gradient zeroing
  /// Informational sub-component of update_us: zeroing the gradient buffers
  /// (its own "zero_grad" device range; charged to the update stage so the
  /// four stages still sum to the step total).
  double zero_grad_us = 0;
  /// Comm time hidden under backward or under per-bucket updates (runs
  /// concurrently; not in total_us).
  double sync_overlapped_us = 0;
  /// Informational sub-component of update_us: optimizer time that ran while
  /// the comm stream was still draining later buckets (the pipelined-update
  /// lane; 0 without cluster.pipeline_update).
  double update_overlapped_us = 0;
  /// What one blocking ring over all gradients would have cost.
  double sync_blocking_us = 0;
  /// Modeled gradient payload this rank put on the ring, at the wire dtype
  /// (ClusterConfig::wire_dtype; kF16 halves the FP32-wire default).
  int64_t wire_bytes = 0;
  /// This step replayed the session's captured StepGraph: the
  /// zero-grad/forward/backward region ran as ONE graph launch with no
  /// per-kernel launch gaps (SessionConfig::graph_capture).
  bool replayed = false;
  // --- tensor parallelism (DESIGN §7; 0 when cluster.tensor_parallel == 1).
  // TP collectives run inside forward/backward on the comm stream; their
  // exposed waits are already contained in forward_us/backward_us.
  double tp_comm_us = 0;     ///< TP collective time enqueued this step
  double tp_exposed_us = 0;  ///< portion the compute stream waited on
  int64_t tp_bytes = 0;      ///< logical TP payload bytes this step
  // --- pipeline parallelism (DESIGN §9; 0 when cluster.pipeline_parallel
  // == 1). All three describe rank 0's (stage 0's) 1F1B lane: forward_us /
  // backward_us above hold only stage 0's compute chunks, so the lane's
  // idle time is reported separately and total_us() stays rank 0's wall
  // clock.
  double pp_bubble_us = 0;   ///< 1F1B schedule idle on the rank-0 lane
  double pp_comm_us = 0;     ///< boundary p2p time touching rank 0
  double pp_exposed_us = 0;  ///< p2p waits on the rank-0 critical path
  double total_us() const {
    return forward_us + backward_us + sync_us + update_us + pp_bubble_us +
           pp_exposed_us;
  }
};

}  // namespace ls2::core
