// Unified telemetry: rolling-window SLO monitors for serving (DESIGN.md §12).
//
// The serving reports used to compute latency percentiles once, at
// finish(), from the full per-request vector. An operator watching a live
// fleet needs the opposite: p50/p99 latency, tokens/sec, availability and
// shed-rate over the *recent* window, refreshed while the workload runs.
//
// SloMonitor keeps a ring of fixed-duration time slices (simulated device
// time, not host time), each holding a coarse streaming histogram plus
// served/shed/token tallies. Events are O(1): locate the slice, record.
// refresh() — called by the batcher once per decode round and by the fleet
// per completion scan — publishes the rolling gauges into the owning
// MetricsRegistry under the monitor's prefix. The merged window is kept
// incrementally: an event inside it is also recorded straight into the
// merged histogram and tallies, so an event stays O(1), and the slices are
// re-merged only when the window moves to a new slice (one ages out) or an
// out-of-order event recycles a slot the window still covers. A refresh
// after events re-reads the quantiles; one with nothing new costs O(1)
// plus the gauge stores:
//
//   <prefix>.slo.p50_us / .p99_us      rolling latency quantiles
//   <prefix>.slo.tokens_per_s          decode throughput over the window
//   <prefix>.slo.availability          served / (served + shed)
//   <prefix>.slo.shed_rate             1 - availability
//   <prefix>.slo.inflight              gauge the owner sets directly
//
// Lifetime totals land in "<prefix>.served_total" / ".shed_total" /
// ".tokens_total" counters. A monitor built with a null registry still
// tracks state (accessors work) but publishes nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ls2::obs {

struct SloConfig {
  double window_us = 1e6;  ///< rolling window length (simulated us)
  int slices = 8;          ///< ring granularity; window_us / slices per slice
  /// Coarser buckets than the report histograms: the rolling window is an
  /// operator signal, not a benchmark number.
  HistogramConfig hist{1.0, 1e9, 1.05};
};

class SloMonitor {
 public:
  SloMonitor(MetricsRegistry* reg, std::string prefix, SloConfig cfg = {});

  /// A request completed at `now_us` with end-to-end latency `latency_us`,
  /// having produced `tokens` decode tokens.
  void on_served(double now_us, double latency_us, int64_t tokens);
  /// A request was shed (admission-rejected) at `now_us`.
  void on_shed(double now_us);

  /// Rotate the ring to `now_us` and publish rolling gauges. Call once per
  /// scheduling round — this is what makes the gauges "live".
  void refresh(double now_us);

  // Rolling-window accessors (valid after the last refresh()).
  double p50_us() const { return p50_us_; }
  double p99_us() const { return p99_us_; }
  double tokens_per_s() const { return tokens_per_s_; }
  double availability() const { return availability_; }
  double shed_rate() const { return shed_rate_; }
  int64_t window_served() const { return window_served_; }
  int64_t window_shed() const { return window_shed_; }

  const std::string& prefix() const { return prefix_; }

 private:
  struct Slice {
    int64_t index = -1;  ///< absolute slice number, -1 = empty
    Histogram hist;
    int64_t served = 0;
    int64_t shed = 0;
    int64_t tokens = 0;
  };

  /// The slice for an event at `now_us` (recycling its slot if the slot
  /// held an older slice). Returns whether the event lands in the merged
  /// window, which the caller then updates too.
  bool slice_at(double now_us, Slice*& slice);
  /// True when absolute slice `index` is one the merged window covers.
  bool in_window(int64_t index) const {
    return index >= 0 && merged_index_ >= 0 && index > merged_index_ - cfg_.slices &&
           index <= merged_index_;
  }
  /// Merge the slices live at slice `now_index` into the window state.
  void merge_window(int64_t now_index);
  /// Window quantiles and availability from the merged state.
  void read_window();

  MetricsRegistry* reg_;
  std::string prefix_;
  SloConfig cfg_;
  double slice_us_;
  std::vector<Slice> ring_;
  double origin_us_ = -1;  ///< first event time, for early-window throughput

  // Registry metrics, resolved on first use.
  MetricRef<int64_t> served_total_, tokens_total_, shed_total_;
  MetricRef<Histogram> latency_;
  MetricRef<double> p50_gauge_, p99_gauge_, tokens_per_s_gauge_, availability_gauge_,
      shed_rate_gauge_;

  // The merged window over the slices up to `merged_index_`, with its
  // tallies. `stale_`: a slot it covers was recycled, so it must be
  // re-merged; `changed_`: an event was added since refresh() last read it.
  Histogram merged_;
  int64_t merged_index_ = -1;
  bool stale_ = false;
  bool changed_ = false;
  int64_t merged_served_ = 0, merged_shed_ = 0, merged_tokens_ = 0;

  double p50_us_ = 0, p99_us_ = 0, tokens_per_s_ = 0;
  double availability_ = 1.0, shed_rate_ = 0;
  int64_t window_served_ = 0, window_shed_ = 0;
};

}  // namespace ls2::obs
