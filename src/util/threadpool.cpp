#include "util/threadpool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace deepsz::util {
namespace {
// Set while a thread is executing a pool task. Nested parallel_for calls
// from inside a task must run inline: a worker blocking in wait_idle() for
// tasks only workers can drain deadlocks the pool.
thread_local bool tl_in_pool_worker = false;
}  // namespace

bool ThreadPool::in_worker() { return tl_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lk(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lk(mu_);
  while (in_flight_ != 0) cv_idle_.wait(mu_);
}

void ThreadPool::worker_loop() {
  tl_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(mu_);
      while (!stop_ && tasks_.empty()) cv_task_.wait(mu_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lk(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    // DEEPSZ_THREADS overrides the hardware-concurrency default: smaller to
    // co-exist with other tenants, larger to exercise the parallel paths on
    // hosts the OS reports as single-core.
    if (const char* env = std::getenv("DEEPSZ_THREADS")) {
      char* end = nullptr;
      long v = std::strtol(env, &end, 10);
      if (end != nullptr && *end == '\0' && v > 0 && v <= 1024) {
        return static_cast<std::size_t>(v);
      }
    }
    return std::size_t{0};
  }());
  return pool;
}

namespace {

// Runs body(lo, hi) over at most `chunks` contiguous sub-ranges of
// [begin, end) on the pool and waits for all of them. A chunk that throws
// stops there and parks its exception; chunks cover ascending ranges, so the
// first parked exception is the one from the lowest index, and it is
// rethrown here on the calling thread. No exception reaches worker_loop.
void run_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                std::size_t chunks,
                const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t n = end - begin;
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::exception_ptr> errors(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::size_t lo = begin + c * chunk;
    std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.submit([lo, hi, &body, &error = errors[c]] {
      try {
        body(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  auto& pool = ThreadPool::global();
  std::size_t n = end - begin;
  if (pool.size() <= 1 || n <= grain || ThreadPool::in_worker()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  run_chunks(pool, begin, end,
             std::min<std::size_t>(pool.size() * 4, (n + grain - 1) / grain),
             [&body](std::size_t lo, std::size_t hi) {
               for (std::size_t i = lo; i < hi; ++i) body(i);
             });
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t min_chunk) {
  if (begin >= end) return;
  auto& pool = ThreadPool::global();
  std::size_t n = end - begin;
  if (pool.size() <= 1 || n <= min_chunk || ThreadPool::in_worker()) {
    body(begin, end);
    return;
  }
  run_chunks(pool, begin, end,
             std::min<std::size_t>(pool.size() * 2,
                                   (n + min_chunk - 1) / min_chunk),
             body);
}

}  // namespace deepsz::util
