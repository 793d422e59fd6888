#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace ls2::obs {

SloMonitor::SloMonitor(MetricsRegistry* reg, std::string prefix, SloConfig cfg)
    : reg_(reg),
      prefix_(std::move(prefix)),
      cfg_(cfg),
      served_total_(reg, prefix_ + ".served_total"),
      tokens_total_(reg, prefix_ + ".tokens_total"),
      shed_total_(reg, prefix_ + ".shed_total"),
      latency_(reg, prefix_ + ".latency_us"),
      p50_gauge_(reg, prefix_ + ".slo.p50_us"),
      p99_gauge_(reg, prefix_ + ".slo.p99_us"),
      tokens_per_s_gauge_(reg, prefix_ + ".slo.tokens_per_s"),
      availability_gauge_(reg, prefix_ + ".slo.availability"),
      shed_rate_gauge_(reg, prefix_ + ".slo.shed_rate"),
      merged_(cfg.hist) {
  LS2_CHECK(cfg_.slices > 0 && cfg_.window_us > 0)
      << "slo config slices=" << cfg_.slices << " window_us=" << cfg_.window_us;
  slice_us_ = cfg_.window_us / static_cast<double>(cfg_.slices);
  ring_.reserve(static_cast<size_t>(cfg_.slices));
  for (int i = 0; i < cfg_.slices; ++i) {
    Slice s;
    s.hist = Histogram(cfg_.hist);
    ring_.push_back(std::move(s));
  }
}

bool SloMonitor::slice_at(double now_us, Slice*& slice) {
  const int64_t index = static_cast<int64_t>(std::max(0.0, now_us) / slice_us_);
  Slice& s = ring_[static_cast<size_t>(index % cfg_.slices)];
  if (s.index != index) {
    // The ring wrapped: this slot last held a window that has since aged
    // out. Recycle it for the current slice. An event older than the slot's
    // slice (completions from replicas whose clocks lag) recycles a slice
    // the merged window may still cover; re-merge then.
    if (in_window(s.index)) stale_ = true;
    s.index = index;
    s.hist.reset();
    s.served = 0;
    s.shed = 0;
    s.tokens = 0;
  }
  slice = &s;
  return !stale_ && in_window(index);
}

void SloMonitor::on_served(double now_us, double latency_us, int64_t tokens) {
  if (origin_us_ < 0) origin_us_ = now_us;
  Slice* s = nullptr;
  if (slice_at(now_us, s)) {
    merged_.record(latency_us);
    merged_served_ += 1;
    merged_tokens_ += tokens;
    changed_ = true;
  }
  s->hist.record(latency_us);
  s->served += 1;
  s->tokens += tokens;
  if (reg_ != nullptr) {
    served_total_.get() += 1;
    tokens_total_.get() += tokens;
    latency_.get().record(latency_us);
  }
}

void SloMonitor::on_shed(double now_us) {
  if (origin_us_ < 0) origin_us_ = now_us;
  Slice* s = nullptr;
  if (slice_at(now_us, s)) {
    merged_shed_ += 1;
    changed_ = true;
  }
  s->shed += 1;
  if (reg_ != nullptr) shed_total_.get() += 1;
}

void SloMonitor::merge_window(int64_t now_index) {
  const int64_t oldest = now_index - cfg_.slices + 1;
  merged_.reset();
  int64_t served = 0, shed = 0, tokens = 0;
  for (const Slice& s : ring_) {
    if (s.index < oldest || s.index > now_index) continue;  // aged out
    merged_.merge(s.hist);
    served += s.served;
    shed += s.shed;
    tokens += s.tokens;
  }
  merged_index_ = now_index;
  stale_ = false;
  merged_served_ = served;
  merged_shed_ = shed;
  merged_tokens_ = tokens;
  read_window();
}

void SloMonitor::read_window() {
  changed_ = false;
  window_served_ = merged_served_;
  window_shed_ = merged_shed_;
  // The quantiles depend only on the bucket counts and the exact min/max,
  // so recording into merged_ directly gives bitwise what a merge gives.
  p50_us_ = merged_.quantile(0.50);
  p99_us_ = merged_.quantile(0.99);
  const int64_t offered = merged_served_ + merged_shed_;
  availability_ = offered > 0 ? static_cast<double>(merged_served_) /
                                    static_cast<double>(offered)
                              : 1.0;
  shed_rate_ = 1.0 - availability_;
}

void SloMonitor::refresh(double now_us) {
  const int64_t now_index = static_cast<int64_t>(std::max(0.0, now_us) / slice_us_);
  if (stale_ || now_index != merged_index_) {
    merge_window(now_index);
  } else if (changed_) {
    read_window();
  }
  // Early in a run the window is not yet full; rate against the elapsed
  // span instead so the gauge does not under-read at startup.
  double span_us = cfg_.window_us;
  if (origin_us_ >= 0) span_us = std::min(span_us, std::max(now_us - origin_us_, slice_us_));
  tokens_per_s_ = static_cast<double>(merged_tokens_) / (span_us / 1e6);

  if (reg_ != nullptr) {
    p50_gauge_.get() = p50_us_;
    p99_gauge_.get() = p99_us_;
    tokens_per_s_gauge_.get() = tokens_per_s_;
    availability_gauge_.get() = availability_;
    shed_rate_gauge_.get() = shed_rate_;
  }
}

}  // namespace ls2::obs
