#include "util/threadpool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace deepsz::util {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunks, ChunksPartitionTheRange) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, ResultMatchesSerialReduction) {
  const std::size_t n = 5000;
  std::vector<double> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = static_cast<double>(i) * 2; });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1));
}

TEST(ParallelFor, NestedCallsCompleteAndCoverTheRange) {
  // A body that itself calls parallel_for (conv-over-batch calling parallel
  // gemm, the container calling blocked codecs) must run the inner loop
  // inline rather than deadlocking the pool in wait_idle(). Regression for
  // a hang only reachable with a multi-worker pool (DEEPSZ_THREADS > 1).
  const std::size_t rows = 64, cols = 4096;
  std::vector<std::atomic<int>> hits(rows * cols);
  parallel_for(0, rows, [&](std::size_t r) {
    EXPECT_TRUE(ThreadPool::global().size() <= 1 || ThreadPool::in_worker());
    parallel_for_chunks(0, cols, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) hits[r * cols + c].fetch_add(1);
    }, 16);
  });
  for (std::size_t i = 0; i < rows * cols; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

// Edge sizes mirroring the DEEPSZ_THREADS override range (0 = hardware
// concurrency, 1 = serial fallback, 1024 = the accepted maximum). Named
// ThreadPoolEdge so the 1024-thread case stays out of the TSan CI job's
// suite regex — instrumented thread creation at that count is minutes-slow.
TEST(ThreadPoolEdge, ZeroWorkersMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolEdge, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1u);
  std::vector<int> order;  // one worker: tasks are serial, no lock needed
  for (int i = 0; i < 50; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ThreadPoolEdge, MaxWorkersStartDrainAndJoin) {
  ThreadPool pool(1024);
  EXPECT_EQ(pool.size(), 1024u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 2048; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2048);
}  // destructor must stop and join all 1024 workers

TEST(ThreadPoolEdge, NestedParallelForFromRawPoolTaskRunsInline) {
  // Not a parallel_for body but a directly submitted task: it occupies a
  // worker slot, so a nested parallel_for must run inline rather than
  // submit-and-wait on the pool it is blocking.
  auto& pool = ThreadPool::global();
  std::vector<std::atomic<int>> hits(4096);
  std::atomic<bool> saw_worker_flag{false};
  pool.submit([&] {
    saw_worker_flag.store(ThreadPool::in_worker());
    parallel_for(0, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_TRUE(saw_worker_flag.load());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolEdge, CapturedExceptionsRethrowAfterChunkedLoop) {
  // Pool tasks must not throw; parallel_for captures each chunk's exception
  // on the worker and rethrows it after the join. An error raised inside a
  // chunk surfaces on the caller.
  const std::size_t n = 1000;
  auto run = [&] {
    parallel_for(0, n, [&](std::size_t i) {
      if (i % 97 == 13) throw std::runtime_error("chunk failure");
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
}

// The error contract of parallel_for / parallel_for_chunks: a throwing body
// never reaches a pool worker (which would terminate the process), and the
// caller sees the exception thrown at the lowest index — on the pooled, the
// nested-inline and the serial path alike. ctest runs with DEEPSZ_THREADS=4,
// so the loops below take the pooled path unless stated otherwise.

/// The message of the runtime_error `fn` throws ("" when it throws none).
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ParallelForErrors, PooledLoopRethrowsLowestIndex) {
  const std::size_t n = 4096;
  const auto msg = thrown_message([&] {
    parallel_for(0, n, [](std::size_t i) {
      if (i % 97 == 13) throw std::runtime_error(std::to_string(i));
    });
  });
  EXPECT_EQ(msg, "13");
  // The pool survives and keeps serving loops.
  std::atomic<std::size_t> count{0};
  parallel_for(0, n, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), n);
}

TEST(ParallelForErrors, PooledChunksRethrowLowestChunk) {
  // Only the chunks reaching into the upper half throw; the caller must see
  // the one with the lowest range, whichever worker finished first.
  const std::size_t n = 100000;
  Mutex mu;
  std::vector<std::size_t> thrown_los;
  const auto msg = thrown_message([&] {
    parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
      if (hi <= n / 2) return;
      {
        MutexLock lock(mu);
        thrown_los.push_back(lo);
      }
      throw std::runtime_error(std::to_string(lo));
    });
  });
  ASSERT_FALSE(thrown_los.empty());
  EXPECT_EQ(msg, std::to_string(*std::min_element(thrown_los.begin(),
                                                  thrown_los.end())));
}

TEST(ParallelForErrors, NestedInlineLoopsRethrowLowestIndex) {
  // Inner loops run inline on the workers; their exceptions leave the outer
  // body and are rethrown by the outer loop, lowest outer index first.
  const auto msg = thrown_message([] {
    parallel_for(0, 16, [](std::size_t r) {
      parallel_for(0, 4096, [r](std::size_t c) {
        if (r >= 3 && c >= 100 && c % 50 == 0) {
          throw std::runtime_error(std::to_string(r) + ":" +
                                   std::to_string(c));
        }
      });
    });
  });
  EXPECT_EQ(msg, "3:100");

  const auto chunks_msg = thrown_message([] {
    parallel_for(0, 16, [](std::size_t r) {
      parallel_for_chunks(
          0, 4096,
          [r](std::size_t, std::size_t) {
            if (r >= 5) throw std::runtime_error(std::to_string(r));
          },
          16);
    });
  });
  EXPECT_EQ(chunks_msg, "5");
}

TEST(ParallelForErrors, LoopInsideRawPoolTaskThrowsToThatTask) {
  // A directly submitted task runs a nested loop inline; the loop's
  // exception reaches the task (which, as every task must, handles it).
  auto& pool = ThreadPool::global();
  std::string msg;
  pool.submit([&msg] {
    msg = thrown_message([] {
      parallel_for(0, 1000, [](std::size_t i) {
        if (i >= 600) throw std::runtime_error(std::to_string(i));
      });
    });
  });
  pool.wait_idle();
  EXPECT_EQ(msg, "600");
}

TEST(ParallelForErrors, SerialPathRethrowsLowestIndex) {
  // A range no larger than the grain runs as a plain loop on the caller.
  const auto msg = thrown_message([] {
    parallel_for(
        0, 10,
        [](std::size_t i) {
          if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
        },
        /*grain=*/100);
  });
  EXPECT_EQ(msg, "3");
  const auto chunks_msg = thrown_message([] {
    parallel_for_chunks(
        0, 10,
        [](std::size_t lo, std::size_t hi) {
          throw std::runtime_error(std::to_string(lo) + "-" +
                                   std::to_string(hi));
        },
        /*min_chunk=*/100);
  });
  EXPECT_EQ(chunks_msg, "0-10");
}

}  // namespace
}  // namespace deepsz::util
