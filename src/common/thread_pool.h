// Minimal fixed-size thread pool with blocking fork-join drivers.
//
// The heavy kernels (GBDT histogram builds, trace generation per cluster,
// backtests) are embarrassingly parallel over ranges; parallel_for splits
// [begin, end) into contiguous chunks and runs them on the pool. The pool is
// shared process-wide via global_pool() so nested code reuses threads instead
// of oversubscribing the (possibly small) machine.
//
// One fork-join core sits under every driver: the calling thread and up to
// `width` pool helpers claim indices from one shared counter, and the caller
// waits only for the indices to finish, never for a helper to start. The
// caller alone can therefore always finish its own work, so the drivers nest
// to any depth — inside pool tasks, under a saturated pool — without
// deadlock. parallel_run_chunks and parallel_run_tasks are thin shapes over
// the core; parallel_for*, parallel_map_reduce, the CSV loaders and the
// sweep engine are built on those two.
//
// Thread-safety: every function here is safe to call from any thread,
// including pool workers. The *callbacks* handed to these drivers run
// concurrently — they must synchronize any shared mutable state themselves.
//
// Determinism: the drivers fix only *which* chunks exist ([begin, end) split
// by grain/thread-count) and, for parallel_map_reduce, the left-to-right
// merge order — chunk *scheduling* is nondeterministic. Callers that need
// bit-identical results across thread counts therefore make each chunk's
// work order-independent (integer sums, disjoint writes); see ml/gbdt.h and
// sim/ for the contracts built on top.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace helios {

class ThreadPool {
 public:
  /// `threads == 0` uses hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  friend void parallel_run_chunks(
      const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);
  friend void parallel_run_tasks(std::vector<std::function<void()>> tasks);

 private:
  /// The fork-join core: runs body(i) for every i in [0, n) on the caller
  /// and up to thread_count() helpers, returns once all n have finished, and
  /// then rethrows the exception of the lowest failing index, if any. With
  /// n == 1 or a one-worker pool the caller runs everything inline.
  void fork_join(std::size_t n, const std::function<void(std::size_t)>& body);
  /// Fire-and-forget enqueue; only fork_join posts, and its helpers never
  /// throw.
  void post(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide pool (lazily constructed, sized to hardware concurrency;
/// the HELIOS_THREADS environment variable overrides the width at first use).
ThreadPool& global_pool();

/// Runs fn(i) for i in [begin, end) across the global pool and blocks until
/// done. Chunks are contiguous; `grain` is the minimum chunk size. Exceptions
/// from fn propagate to the caller (the lowest failing index wins).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1024);

/// Runs fn(chunk_begin, chunk_end) over contiguous chunks — useful when the
/// body wants to maintain per-chunk scratch state.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain = 1024);

/// Splits [begin, end) into at most `max_chunks` contiguous chunks of at
/// least `grain` each. Lets callers pre-size per-chunk scratch (partial
/// sums, shards) before fanning out with parallel_run_chunks.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t begin, std::size_t end, std::size_t max_chunks,
    std::size_t grain = 1);

/// Runs fn(chunk_index, lo, hi) for each range on the global pool and the
/// calling thread, and blocks until done. A single chunk runs inline. The
/// lowest failing chunk's exception propagates after every chunk finished.
void parallel_run_chunks(
    const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Runs a set of heterogeneous tasks to completion on the global pool and
/// the calling thread, and blocks until every task finished. Used where the
/// work items are uneven (VC shards, sweep cells, forecaster fits). The
/// lowest failing task's exception propagates after every task finished.
void parallel_run_tasks(std::vector<std::function<void()>> tasks);

/// Chunked map-reduce over [begin, end): `make(lo, hi)` produces one partial
/// result per contiguous chunk on the pool; partials are then folded
/// left-to-right in chunk order via `merge(acc, partial)`. Because the merge
/// order is fixed, the reduction is deterministic for any thread count — and
/// when the partials combine exactly (integer sums, bitwise-stable state) the
/// result is identical to a serial left fold. Used by the GBDT histogram
/// engine to merge per-chunk gradient histograms.
template <typename T, typename MakeFn, typename MergeFn>
[[nodiscard]] T parallel_map_reduce(std::size_t begin, std::size_t end,
                                    std::size_t grain, MakeFn&& make,
                                    MergeFn&& merge) {
  const std::size_t threads = global_pool().thread_count();
  const auto chunks =
      chunk_ranges(begin, end, threads > 1 ? threads * 2 : 1, grain);
  if (chunks.size() <= 1) return make(begin, end);
  std::vector<std::optional<T>> partials(chunks.size());
  parallel_run_chunks(chunks,
                      [&](std::size_t i, std::size_t lo, std::size_t hi) {
                        partials[i].emplace(make(lo, hi));
                      });
  T acc = std::move(*partials.front());
  for (std::size_t i = 1; i < partials.size(); ++i) {
    merge(acc, std::move(*partials[i]));
  }
  return acc;
}

}  // namespace helios
