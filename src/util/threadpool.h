// Shared-memory parallelism substrate.
//
// The paper runs encoding on 4 GPUs and decoding on a Xeon; we reproduce the
// parallel structure (independent per-layer compression, batched forward
// passes, blocked codecs) with a fixed-size thread pool. parallel_for uses
// static chunking so results are deterministic regardless of thread count; on
// a single-core host it degrades to a plain loop with no thread overhead.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace deepsz::util {

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw: an exception escaping a task
  /// terminates the process. parallel_for / parallel_for_chunks catch their
  /// bodies' exceptions and rethrow them on the caller; use those.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool, sized to the host's hardware concurrency (override
  /// with the DEEPSZ_THREADS environment variable, read once at first use).
  static ThreadPool& global();

  /// True on a thread currently executing a pool task. parallel_for uses
  /// this to run nested parallel loops inline instead of deadlocking in
  /// wait_idle().
  static bool in_worker();

 private:
  void worker_loop();

  // workers_ is written only by the constructor (before any worker can
  // observe it) and joined by the destructor after stop_; it needs no guard.
  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ DEEPSZ_GUARDED_BY(mu_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t in_flight_ DEEPSZ_GUARDED_BY(mu_) = 0;
  bool stop_ DEEPSZ_GUARDED_BY(mu_) = false;
};

/// Runs body(i) for i in [begin, end) across the global pool with static
/// chunking. Falls back to a serial loop when the pool has a single worker,
/// the range is tiny, or the caller is itself a pool task (nested loops run
/// inline). The body must be safe to run concurrently for distinct i.
///
/// Error contract, the same on the pooled, nested-inline and serial paths:
/// the body may throw. No exception reaches a pool worker; once the loop has
/// stopped, the one thrown at the lowest index is rethrown on the calling
/// thread. Indices above a throwing one may or may not have run. Callers
/// need no capture-and-rethrow wrapper of their own.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Chunked variant: body(lo, hi) receives contiguous sub-ranges. Preferred for
/// kernels that benefit from sequential memory access within a chunk. Same
/// error contract as parallel_for: the exception of the lowest-range chunk
/// that threw is rethrown on the calling thread.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t min_chunk = 1024);

}  // namespace deepsz::util
