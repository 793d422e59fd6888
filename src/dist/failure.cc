#include "dist/failure.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ls2::dist {

HeartbeatConfig HeartbeatConfig::from_millis(int ranks, double interval_ms,
                                             double timeout_ms) {
  LS2_CHECK(interval_ms > 0 && timeout_ms > 0)
      << "heartbeat interval/timeout must be positive";
  LS2_CHECK(timeout_ms >= interval_ms)
      << "a timeout shorter than the scan interval suspects every rank";
  HeartbeatConfig hc;
  hc.ranks = ranks;
  hc.interval = std::chrono::milliseconds(
      std::max<int64_t>(1, static_cast<int64_t>(interval_ms)));
  hc.timeout = std::chrono::milliseconds(
      std::max<int64_t>(1, static_cast<int64_t>(timeout_ms)));
  return hc;
}

HeartbeatMonitor::HeartbeatMonitor(HeartbeatConfig cfg) : cfg_(std::move(cfg)) {
  LS2_CHECK(cfg_.ranks >= 1) << "heartbeat monitor needs at least one rank";
  LS2_CHECK(cfg_.timeout.count() > 0 && cfg_.interval.count() > 0);
  last_beat_.assign(static_cast<size_t>(cfg_.ranks), now());
  suspected_.assign(static_cast<size_t>(cfg_.ranks), false);
}

HeartbeatMonitor::~HeartbeatMonitor() { stop(); }

void HeartbeatMonitor::start() {
  std::unique_lock<std::mutex> lock(mu_);
  LS2_CHECK(!running_) << "heartbeat monitor already running";
  running_ = true;
  last_beat_.assign(static_cast<size_t>(cfg_.ranks), now());
  suspected_.assign(static_cast<size_t>(cfg_.ranks), false);
  suspect_events_ = 0;
  scans_ = 0;
  lock.unlock();
  watcher_ = std::thread([this] { watch(); });
}

void HeartbeatMonitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

void HeartbeatMonitor::beat(int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  LS2_CHECK(rank >= 0 && rank < cfg_.ranks) << "beat from unknown rank " << rank;
  last_beat_[static_cast<size_t>(rank)] = now();
  // A late beat clears the suspicion: the rank was stalled, not dead.
  suspected_[static_cast<size_t>(rank)] = false;
}

std::vector<int> HeartbeatMonitor::suspected() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (int r = 0; r < cfg_.ranks; ++r)
    if (suspected_[static_cast<size_t>(r)]) out.push_back(r);
  return out;
}

bool HeartbeatMonitor::any_suspected() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (bool s : suspected_)
    if (s) return true;
  return false;
}

int64_t HeartbeatMonitor::suspect_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suspect_events_;
}

int64_t HeartbeatMonitor::scans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scans_;
}

void HeartbeatMonitor::scan() {
  std::vector<int> newly;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++scans_;
    const auto t = now();
    for (int r = 0; r < cfg_.ranks; ++r) {
      const size_t i = static_cast<size_t>(r);
      if (!suspected_[i] && t - last_beat_[i] > cfg_.timeout) {
        suspected_[i] = true;
        ++suspect_events_;
        newly.push_back(r);
      }
    }
  }
  // Callback runs unlocked: it may call back into suspected()/beat().
  if (on_suspect_)
    for (int r : newly) on_suspect_(r);
}

void HeartbeatMonitor::watch() {
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    cv_.wait_for(lock, cfg_.interval, [this] { return !running_; });
    if (!running_) break;
    lock.unlock();
    scan();
    lock.lock();
  }
}

}  // namespace ls2::dist
