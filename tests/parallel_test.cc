#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace ls2 {
namespace {

// Every index runs exactly once, on either side of the serial cutoff and
// for element loops as well as row loops.
TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (const int64_t n : {1, 7, 1000, 16383, 16384, 16385, 100000}) {
    for (const int64_t work : {1, 128}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n) + 10);
      parallel_for(10, n + 10, work, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
      for (int64_t i = 0; i < n + 10; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), i < 10 ? 0 : 1)
            << "n=" << n << " work=" << work << " i=" << i;
    }
  }
  parallel_for(5, 5, [](int64_t) { FAIL() << "empty range ran"; });
  parallel_for(5, 2, [](int64_t) { FAIL() << "negative range ran"; });
}

// Serial or parallel is decided from total work, not from the index count.
TEST(ParallelForTest, SplitDependsOnTotalWork) {
  if (parallel_thread_count() == 1) GTEST_SKIP() << "single-threaded host";
  EXPECT_EQ(detail::chunk_count(1000, 1), 1);       // short element loop
  EXPECT_GT(detail::chunk_count(1024, 128), 1);     // LayerNorm rows [1024, 128]
  EXPECT_EQ(detail::chunk_count(8, 100), 1);        // few short rows
  EXPECT_GT(detail::chunk_count(4, 1 << 20), 1);    // few long rows
  EXPECT_LE(detail::chunk_count(4, 1 << 20), 4);    // never more chunks than indices
  EXPECT_GT(detail::chunk_count(int64_t{1} << 40, int64_t{1} << 40), 1);  // no overflow
}

TEST(ParallelForTest, ShortLoopStaysOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  parallel_for(0, 1000, [&](int64_t) {
    if (std::this_thread::get_id() != caller) elsewhere++;
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

// A loop started from inside a pool chunk runs serially on that thread and
// completes (no deadlock waiting for the busy pool).
TEST(ParallelForTest, NestedLoopRunsSeriallyInsideChunk) {
  const int64_t outer = 64, inner = 50000;
  std::vector<std::atomic<int64_t>> sums(outer);
  std::atomic<int> foreign{0};
  parallel_for(0, outer, inner, [&](int64_t o) {
    const std::thread::id self = std::this_thread::get_id();
    parallel_for(0, inner, [&](int64_t i) {
      if (std::this_thread::get_id() != self) foreign++;
      sums[static_cast<size_t>(o)] += i;
    });
  });
  EXPECT_EQ(foreign.load(), 0);
  for (const auto& s : sums) EXPECT_EQ(s.load(), inner * (inner - 1) / 2);
}

// Two host threads may run loops at once: one holds the pool, the other
// runs serially, and both get complete results.
TEST(ParallelForTest, ConcurrentCallersBothComplete) {
  const int64_t n = 200000;
  const auto run = [&](std::vector<int>& out) {
    for (int rep = 0; rep < 100; ++rep)
      parallel_for(0, n, [&](int64_t i) { out[static_cast<size_t>(i)] += 1; });
  };
  std::vector<int> a(static_cast<size_t>(n)), b(static_cast<size_t>(n));
  std::thread t1([&] { run(a); });
  std::thread t2([&] { run(b); });
  t1.join();
  t2.join();
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(a[static_cast<size_t>(i)], 100) << i;
    ASSERT_EQ(b[static_cast<size_t>(i)], 100) << i;
  }
}

// An exception thrown inside a chunk reaches the caller, and the pool keeps
// working afterwards.
TEST(ParallelForTest, ExceptionReachesCallerAndPoolStaysUsable) {
  const int64_t n = 100000;
  for (const int64_t bad : {int64_t{0}, n / 2, n - 1}) {
    EXPECT_THROW(parallel_for(0, n,
                              [&](int64_t i) {
                                if (i == bad) throw std::runtime_error("chunk failed");
                              }),
                 std::runtime_error);
  }
  EXPECT_THROW(parallel_for_chunks(0, n, 128,
                                   [](int64_t lo, int64_t) {
                                     if (lo > 0) throw std::logic_error("late chunk");
                                   }),
               std::logic_error);
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  parallel_for(0, n, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// parallel_for_chunks keeps its boundaries: at most one chunk per thread,
// none shorter than min_chunk bar the last, equal-sized from the front.
TEST(ParallelForTest, ChunkBoundariesAreUnchanged) {
  const int64_t threads = parallel_thread_count();
  for (const auto& [begin, end, min_chunk] :
       {std::tuple<int64_t, int64_t, int64_t>{0, 10000, 128}, {3, 1003, 64}, {0, 64, 64},
        {0, 65, 64}, {7, 7 + 5 * threads, 1}, {0, 100, 1000}}) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> got;
    parallel_for_chunks(begin, end, min_chunk, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lk(mu);
      got.emplace_back(lo, hi);
    });
    std::sort(got.begin(), got.end());
    std::vector<std::pair<int64_t, int64_t>> want;
    const int64_t n = end - begin;
    if (n <= min_chunk || threads == 1) {
      want.emplace_back(begin, end);
    } else {
      const int64_t chunks = std::min(threads, (n + min_chunk - 1) / min_chunk);
      const int64_t chunk = (n + chunks - 1) / chunks;
      for (int64_t lo = begin; lo < end; lo += chunk) want.emplace_back(lo, std::min(end, lo + chunk));
    }
    EXPECT_EQ(got, want) << begin << ".." << end << " min_chunk " << min_chunk;
  }
}

}  // namespace
}  // namespace ls2
