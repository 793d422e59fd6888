#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ls2 {

int parallel_thread_count() {
  static const int n = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return n;
}

namespace {

// A loop with less total work than this runs on the calling thread: waking
// the pool costs more than the loop saves.
constexpr int64_t kParallelWork = 16384;
// Smallest work per chunk, and chunks per thread for load balance (a worker
// that wakes late still finds chunks to claim).
constexpr int64_t kChunkWork = 4096;
constexpr int64_t kChunksPerThread = 4;
// How long an idle thread spins before it blocks: kernel launches arrive
// back to back, and a spinning worker joins the next loop without a wake-up.
constexpr auto kSpin = std::chrono::microseconds(50);

// True on pool workers, and on a caller while its loop holds the pool: a
// loop started there runs serially.
thread_local bool t_in_loop = false;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spins for up to kSpin until done() holds; returns done().
template <typename Pred>
bool spin_until(const Pred& done) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  for (int i = 1;; ++i) {
    if (done()) return true;
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() > until) return done();
  }
}

class Pool {
 public:
  explicit Pool(int workers) {
    threads_.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) threads_.emplace_back([this] { worker_loop(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Runs the loop on the pool and returns true, or returns false at once
  /// when another thread's loop holds the pool.
  bool try_run(int64_t begin, int64_t end, int64_t chunk, detail::ChunkFn fn,
               const void* body) {
    std::unique_lock<std::mutex> owner(owner_mu_, std::try_to_lock);
    if (!owner.owns_lock()) return false;
    const int64_t chunks = (end - begin + chunk - 1) / chunk;
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = fn;
      body_ = body;
      begin_ = begin;
      end_ = end;
      chunk_ = chunk;
      chunks_ = chunks;
      next_.store(0, std::memory_order_relaxed);
      remaining_.store(chunks, std::memory_order_relaxed);
      failed_.store(false, std::memory_order_relaxed);
      error_ = nullptr;
      open_ = true;
      generation_.store(generation_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
    }
    wake_.notify_all();

    t_in_loop = true;
    work();
    t_in_loop = false;

    const auto finished = [this] { return remaining_.load(std::memory_order_acquire) == 0; };
    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
    if (!spin_until(finished)) {
      lk.lock();
      done_.wait(lk, finished);
    } else {
      lk.lock();
    }
    // Workers still inside this loop only have an empty claim left; wait for
    // them so the next loop can overwrite the job.
    open_ = false;
    done_.wait(lk, [this] { return active_ == 0; });
    const std::exception_ptr error = std::exchange(error_, nullptr);
    lk.unlock();
    if (error) std::rethrow_exception(error);
    return true;
  }

 private:
  void worker_loop() {
    t_in_loop = true;
    uint64_t seen = 0;
    for (;;) {
      spin_until([&] { return generation_.load(std::memory_order_acquire) != seen; });
      std::unique_lock<std::mutex> lk(mu_);
      wake_.wait(lk, [&] {
        return stop_ || generation_.load(std::memory_order_relaxed) != seen;
      });
      if (stop_) return;
      seen = generation_.load(std::memory_order_relaxed);
      if (!open_) continue;  // woke after that loop finished
      ++active_;
      lk.unlock();
      work();
      lk.lock();
      if (--active_ == 0) done_.notify_all();
    }
  }

  // Claims and runs chunks until none are left. After the first failure the
  // remaining chunks are claimed but skipped.
  void work() {
    for (;;) {
      const int64_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_) return;
      if (!failed_.load(std::memory_order_relaxed)) {
        const int64_t lo = begin_ + c * chunk_;
        try {
          fn_(body_, lo, std::min(end_, lo + chunk_));
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu_);
          if (!error_) error_ = std::current_exception();
          failed_.store(true, std::memory_order_relaxed);
        }
      }
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(mu_);
        done_.notify_all();
      }
    }
  }

  std::mutex owner_mu_;  // held by the caller whose loop runs on the pool

  std::mutex mu_;
  std::condition_variable wake_;  // a new loop was published, or stop_
  std::condition_variable done_;  // remaining_ or active_ reached zero
  bool stop_ = false;             // guarded by mu_
  bool open_ = false;             // guarded by mu_: workers may join the loop
  int active_ = 0;                // guarded by mu_: workers inside the loop
  std::exception_ptr error_;      // guarded by mu_: first chunk failure
  std::atomic<uint64_t> generation_{0};  // written under mu_

  // The published loop: written under mu_ before generation_ moves, read
  // by the caller and by workers that joined under mu_.
  detail::ChunkFn fn_ = nullptr;
  const void* body_ = nullptr;
  int64_t begin_ = 0, end_ = 0, chunk_ = 1, chunks_ = 0;
  std::atomic<int64_t> next_{0};       // next chunk to claim
  std::atomic<int64_t> remaining_{0};  // chunks not yet finished
  std::atomic<bool> failed_{false};

  std::vector<std::thread> threads_;  // last: workers use every member above
};

Pool& pool() {
  static Pool p(parallel_thread_count() - 1);
  return p;
}

}  // namespace

namespace detail {

int64_t chunk_count(int64_t n, int64_t work_per_index) {
  const int64_t threads = parallel_thread_count();
  if (threads == 1 || t_in_loop) return 1;
  const int64_t work = std::max<int64_t>(work_per_index, 1);
  // Work beyond `cap` adds no chunks; saturating there also avoids overflow.
  const int64_t cap = kChunkWork * kChunksPerThread * threads;
  const int64_t total = n >= (cap + work - 1) / work ? cap : n * work;
  if (total < kParallelWork) return 1;
  return std::min(n, std::max<int64_t>(2, total / kChunkWork));
}

void run_chunks(int64_t begin, int64_t end, int64_t chunk, ChunkFn fn, const void* body) {
  if (begin >= end) return;
  if (parallel_thread_count() > 1 && !t_in_loop && end - begin > chunk &&
      pool().try_run(begin, end, chunk, fn, body)) {
    return;
  }
  for (int64_t lo = begin; lo < end; lo += chunk) fn(body, lo, std::min(end, lo + chunk));
}

}  // namespace detail
}  // namespace ls2
