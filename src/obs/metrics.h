// Unified telemetry: the metrics registry (DESIGN.md §12).
//
// Named counters, gauges, and fixed-bucket streaming histograms with O(1)
// record and O(buckets) quantile estimation — replacing the sort-the-whole-
// vector percentile helpers that used to be duplicated across the serving
// reports. A registry snapshot is deterministic (std::map iteration order,
// fixed float formatting), which is what makes the metrics-snapshot golden
// test meaningful: two runs of a seeded workload produce byte-identical
// JSON.
//
// Layering: this header depends only on common/; the rest of obs/ (spans,
// roofline, SLO) sits on simgpu, and core/dist/infer push into (or are
// scraped into) a registry from above. Everything is null-tolerant at the
// call sites: a component handed no registry records nothing and costs one
// pointer test.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ls2::obs {

/// Exact percentile of a sample vector by sort + linear interpolation — the
/// one shared copy of the helper that used to live (identically) in
/// infer/batcher.cc and infer/fleet.cc. For large or streaming populations
/// prefer Histogram::quantile; this remains for small decision-making
/// populations (the fleet's hedge ECDF) where exactness matters more than
/// O(1) updates.
double exact_percentile(std::vector<double> v, double p);

struct HistogramConfig {
  /// Lower edge of the first log-spaced bucket; values below land in an
  /// underflow bucket whose estimate interpolates [min_seen, lo).
  double lo = 1.0;
  /// Upper edge of the last log-spaced bucket; values above land in an
  /// overflow bucket whose estimate interpolates [hi, max_seen].
  double hi = 1e9;
  /// Per-bucket geometric growth: relative quantile error is bounded by
  /// (growth - 1) before interpolation tightens it further.
  double growth = 1.02;
};

/// Fixed-bucket streaming histogram: log-spaced buckets over [lo, hi] with
/// an underflow and an overflow bucket. record() is O(1) (one log, one
/// increment); quantile() walks the bucket array once and interpolates
/// linearly inside the landing bucket, clamped to the exact observed
/// [min, max]. Deterministic: same inputs, same counts, same estimates.
class Histogram {
 public:
  explicit Histogram(HistogramConfig cfg = {});

  void record(double value);
  /// Fold another histogram (same config) into this one.
  void merge(const Histogram& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Estimated q-quantile (q in [0,1]); 0 when empty. quantile(0) == min,
  /// quantile(1) == max (exact — the clamp).
  double quantile(double q) const;

  const HistogramConfig& config() const { return cfg_; }
  const std::vector<int64_t>& buckets() const { return buckets_; }
  /// Lower value edge of bucket `i` (0 for the underflow bucket).
  double bucket_lower(size_t i) const;
  double bucket_upper(size_t i) const;

  void reset();

 private:
  size_t bucket_index(double value) const;

  HistogramConfig cfg_;
  double inv_log_growth_ = 0;
  std::vector<int64_t> buckets_;  // [underflow, log buckets..., overflow]
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named metrics, one namespace per registry. Names are dot-separated
/// ("serve.latency_us"); the Prometheus exposition sanitizes them. The
/// registry is single-threaded like the simulator itself — the discrete-
/// event loops that feed it never race.
class MetricsRegistry {
 public:
  /// Name-ordered map; lookups by string_view allocate nothing.
  template <typename V>
  using NameMap = std::map<std::string, V, std::less<>>;

  /// Counter: monotonically increasing int64. The returned reference is
  /// stable until clear() — hot paths cache it through a MetricRef.
  int64_t& counter(std::string_view name);
  /// Gauge: a settable double (current value of something).
  double& gauge(std::string_view name);
  /// Streaming histogram; the config is applied on first use only.
  Histogram& histogram(std::string_view name, HistogramConfig cfg = {});

  bool has_counter(std::string_view name) const { return counters_.count(name) > 0; }
  bool has_gauge(std::string_view name) const { return gauges_.count(name) > 0; }
  bool has_histogram(std::string_view name) const { return histograms_.count(name) > 0; }

  /// Constant labels stamped on every exposition line (rank/replica
  /// attribution: set_label("replica", "2")).
  void set_label(const std::string& key, const std::string& value);

  const NameMap<int64_t>& counters() const { return counters_; }
  const NameMap<double>& gauges() const { return gauges_; }
  const NameMap<Histogram>& histograms() const { return histograms_; }
  const NameMap<std::string>& labels() const { return labels_; }

  /// Deterministic JSON snapshot: labels, counters, gauges, and per-
  /// histogram {count,sum,min,max,p50,p90,p99,buckets} with every non-zero
  /// bucket listed — byte-identical across identical runs (the golden-test
  /// contract).
  std::string to_json() const;

  /// Prometheus text exposition (counters, gauges, histogram summaries with
  /// quantile labels). Names are prefixed "ls2_" and sanitized to
  /// [a-zA-Z0-9_]; registry labels become series labels.
  std::string to_prometheus() const;

  /// Drop every metric and label. References handed out before are
  /// invalidated; MetricRef notices through generation() and re-resolves.
  void clear();
  /// Incremented by every clear().
  uint64_t generation() const { return generation_; }

 private:
  uint64_t generation_ = 0;
  NameMap<int64_t> counters_;
  NameMap<double> gauges_;
  NameMap<Histogram> histograms_;
  NameMap<std::string> labels_;
};

/// A registry metric resolved once: the first get() looks the name up (so,
/// like a direct lookup, the metric appears in the registry only once it is
/// used) and later calls reuse the reference, until the registry is
/// cleared. V selects the family: int64_t a counter, double a gauge,
/// Histogram a histogram with the default config.
template <typename V>
class MetricRef {
 public:
  MetricRef(MetricsRegistry* reg, std::string name) : reg_(reg), name_(std::move(name)) {}

  V& get() {
    if (slot_ == nullptr || generation_ != reg_->generation()) {
      if constexpr (std::is_same_v<V, int64_t>) {
        slot_ = &reg_->counter(name_);
      } else if constexpr (std::is_same_v<V, double>) {
        slot_ = &reg_->gauge(name_);
      } else {
        slot_ = &reg_->histogram(name_);
      }
      generation_ = reg_->generation();
    }
    return *slot_;
  }

 private:
  MetricsRegistry* reg_;
  std::string name_;
  V* slot_ = nullptr;
  uint64_t generation_ = 0;
};

}  // namespace ls2::obs
