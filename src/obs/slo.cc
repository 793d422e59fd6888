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
      served_total_(prefix_ + ".served_total"),
      tokens_total_(prefix_ + ".tokens_total"),
      shed_total_(prefix_ + ".shed_total"),
      latency_(prefix_ + ".latency_us"),
      p50_gauge_(prefix_ + ".slo.p50_us"),
      p99_gauge_(prefix_ + ".slo.p99_us"),
      tokens_per_s_gauge_(prefix_ + ".slo.tokens_per_s"),
      availability_gauge_(prefix_ + ".slo.availability"),
      shed_rate_gauge_(prefix_ + ".slo.shed_rate"),
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

SloMonitor::Slice& SloMonitor::slice_at(double now_us) {
  dirty_ = true;
  const int64_t index = static_cast<int64_t>(std::max(0.0, now_us) / slice_us_);
  Slice& s = ring_[static_cast<size_t>(index % cfg_.slices)];
  if (s.index != index) {
    // The ring wrapped: this slot last held a window that has since aged
    // out. Recycle it for the current slice.
    s.index = index;
    s.hist.reset();
    s.served = 0;
    s.shed = 0;
    s.tokens = 0;
  }
  return s;
}

void SloMonitor::on_served(double now_us, double latency_us, int64_t tokens) {
  if (origin_us_ < 0) origin_us_ = now_us;
  Slice& s = slice_at(now_us);
  s.hist.record(latency_us);
  s.served += 1;
  s.tokens += tokens;
  if (reg_ != nullptr) {
    reg_->counter(served_total_) += 1;
    reg_->counter(tokens_total_) += tokens;
    reg_->histogram(latency_).record(latency_us);
  }
}

void SloMonitor::on_shed(double now_us) {
  if (origin_us_ < 0) origin_us_ = now_us;
  slice_at(now_us).shed += 1;
  if (reg_ != nullptr) reg_->counter(shed_total_) += 1;
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
  dirty_ = false;
  window_served_ = served;
  window_shed_ = shed;
  window_tokens_ = tokens;
  p50_us_ = merged_.quantile(0.50);
  p99_us_ = merged_.quantile(0.99);
  const int64_t offered = served + shed;
  availability_ = offered > 0 ? static_cast<double>(served) /
                                    static_cast<double>(offered)
                              : 1.0;
  shed_rate_ = 1.0 - availability_;
}

void SloMonitor::refresh(double now_us) {
  const int64_t now_index = static_cast<int64_t>(std::max(0.0, now_us) / slice_us_);
  if (dirty_ || now_index != merged_index_) merge_window(now_index);
  // Early in a run the window is not yet full; rate against the elapsed
  // span instead so the gauge does not under-read at startup.
  double span_us = cfg_.window_us;
  if (origin_us_ >= 0) span_us = std::min(span_us, std::max(now_us - origin_us_, slice_us_));
  tokens_per_s_ = static_cast<double>(window_tokens_) / (span_us / 1e6);

  if (reg_ != nullptr) {
    reg_->gauge(p50_gauge_) = p50_us_;
    reg_->gauge(p99_gauge_) = p99_us_;
    reg_->gauge(tokens_per_s_gauge_) = tokens_per_s_;
    reg_->gauge(availability_gauge_) = availability_;
    reg_->gauge(shed_rate_gauge_) = shed_rate_;
  }
}

}  // namespace ls2::obs
