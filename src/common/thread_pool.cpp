#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>

#include "common/env.h"

namespace helios {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::fork_join(std::size_t n,
                           const std::function<void(std::size_t)>& body) {
  // Shared ownership: a helper may start only after every index is claimed
  // and the caller has returned; it then finds the counter exhausted and
  // leaves without touching `body`.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t error_index = SIZE_MAX;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  auto drain = [shared, n, body = &body] {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1);
      if (i >= n) return;
      try {
        (*body)(i);
      } catch (...) {
        // The lowest failing index wins, so the rethrown error does not
        // depend on scheduling or on the pool width.
        std::lock_guard lock(shared->mutex);
        if (i < shared->error_index) {
          shared->error_index = i;
          shared->error = std::current_exception();
        }
      }
      if (shared->done.fetch_add(1) + 1 == n) {
        std::lock_guard lock(shared->mutex);
        shared->cv.notify_all();
      }
    }
  };
  // A single index, or a single-threaded pool, gains nothing from helpers:
  // the caller runs everything inline (on a one-core machine the handoff to
  // the lone worker otherwise costs real wall time on every call).
  const std::size_t helpers =
      n > 1 && workers_.size() > 1 ? std::min(n - 1, workers_.size()) : 0;
  for (std::size_t h = 0; h < helpers; ++h) post(drain);
  // The caller drains too, so it finishes its own indices even when every
  // worker is blocked further up the stack; it waits only for indices a
  // helper already claimed, never for a helper to be scheduled.
  drain();
  std::unique_lock lock(shared->mutex);
  shared->cv.wait(lock, [&] { return shared->done.load() == n; });
  // Move the error out, so the exception is released on the caller's thread
  // rather than by whichever late helper drops `shared` last.
  if (shared->error) std::rethrow_exception(std::exchange(shared->error, {}));
}

ThreadPool& global_pool() {
  // HELIOS_THREADS overrides the pool width at first use (0 = hardware
  // concurrency) — the same knob the benches use, and the only way to
  // exercise the multi-worker paths on a single-core CI machine.
  static ThreadPool pool(static_cast<std::size_t>(
      std::max<std::int64_t>(0, env_int("HELIOS_THREADS", 0))));
  return pool;
}

std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t begin, std::size_t end, std::size_t max_chunks,
    std::size_t grain) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (begin >= end) return chunks;
  const std::size_t n = end - begin;
  const std::size_t chunk = std::max(
      std::max<std::size_t>(grain, 1),
      (n + max_chunks - 1) / std::max<std::size_t>(1, max_chunks));
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    chunks.emplace_back(lo, std::min(end, lo + chunk));
  }
  return chunks;
}

void parallel_run_chunks(
    const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  global_pool().fork_join(chunks.size(), [&](std::size_t i) {
    fn(i, chunks[i].first, chunks[i].second);
  });
}

void parallel_run_tasks(std::vector<std::function<void()>> tasks) {
  global_pool().fork_join(tasks.size(), [&](std::size_t i) { tasks[i](); });
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain) {
  if (begin >= end) return;  // don't spin up the pool for nothing
  parallel_run_chunks(
      chunk_ranges(begin, end, global_pool().thread_count() * 4, grain),
      [&fn](std::size_t, std::size_t lo, std::size_t hi) { fn(lo, hi); });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace helios
