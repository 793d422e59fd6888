// Host data parallelism for kernel bodies.
//
// On the real system these loops are CUDA grids; in this reproduction the
// kernels execute on the host. A pool of parallel_thread_count() - 1
// persistent workers, started on first use, runs the chunks of a loop
// together with the calling thread. Dispatch is templated: the loop body is
// inlined into its chunk, so a parallel loop costs one indirect call per
// chunk, never one per index.
//
// Whether a loop runs in parallel is decided from its total work (indices x
// elements each index touches), so a row loop over few long rows splits
// while a short element loop stays on the calling thread. A loop started
// from inside a pool chunk, or while another host thread's loop holds the
// pool, runs serially on its own thread. Every index computes the same
// values wherever it runs, so results never depend on the thread count.
//
// An exception thrown by a chunk is rethrown to the caller once every chunk
// has finished or been skipped; the pool stays usable.
#pragma once

#include <algorithm>
#include <cstdint>

namespace ls2 {

/// Number of threads (workers plus the caller) a parallel loop may use.
int parallel_thread_count();

namespace detail {

using ChunkFn = void (*)(const void* body, int64_t lo, int64_t hi);

/// Runs fn(body, lo, hi) over [begin, end) cut into chunks of `chunk`
/// indices (the last one may be shorter), on the pool when it is free.
void run_chunks(int64_t begin, int64_t end, int64_t chunk, ChunkFn fn, const void* body);

/// Chunks a loop of `n` indices, each touching `work_per_index` elements,
/// is split into; 1 means the loop runs serially.
int64_t chunk_count(int64_t n, int64_t work_per_index);

template <typename Body>
void invoke_chunk(const void* body, int64_t lo, int64_t hi) {
  (*static_cast<const Body*>(body))(lo, hi);
}

}  // namespace detail

/// Parallel loop over [begin, end) where each index touches about
/// `work_per_index` elements (a row loop passes its row length). `fn(i)`
/// must be safe to run concurrently for distinct i.
template <typename F>
void parallel_for(int64_t begin, int64_t end, int64_t work_per_index, const F& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int64_t chunks = detail::chunk_count(n, work_per_index);
  if (chunks <= 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const auto body = [&fn](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) fn(i);
  };
  detail::run_chunks(begin, end, (n + chunks - 1) / chunks,
                     &detail::invoke_chunk<decltype(body)>, &body);
}

/// Element loop: each index touches one element.
template <typename F>
void parallel_for(int64_t begin, int64_t end, const F& fn) {
  parallel_for(begin, end, 1, fn);
}

/// Parallel loop over chunks: fn(chunk_begin, chunk_end), at most one chunk
/// per thread and none shorter than `min_chunk` (bar the last). Used by
/// kernels that want per-chunk accumulators.
template <typename F>
void parallel_for_chunks(int64_t begin, int64_t end, int64_t min_chunk, const F& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int threads = parallel_thread_count();
  if (n <= min_chunk || threads == 1) {
    fn(begin, end);
    return;
  }
  const int64_t want = std::min<int64_t>(threads, (n + min_chunk - 1) / min_chunk);
  detail::run_chunks(begin, end, (n + want - 1) / want, &detail::invoke_chunk<F>, &fn);
}

}  // namespace ls2
