// RequestScheduler: micro-batch coalescing, admission control, deadlines,
// hot-swap safety, and output correctness against a direct session.
#include "server/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "data/weight_synthesis.h"
#include "serve/inference_session.h"
#include "server/metrics.h"
#include "tests/heap_usage.h"
#include "tests/server/test_containers.h"

namespace deepsz::server {
namespace {

using testing::tiny_container;

InferRequest one_row(std::int64_t features, float fill = 0.5f) {
  InferRequest r;
  r.rows = 1;
  r.input.assign(static_cast<std::size_t>(features), fill);
  return r;
}

TEST(RequestScheduler, RejectsBadOptions) {
  ModelRepository repo;
  SchedulerOptions bad;
  bad.max_batch = 0;
  EXPECT_THROW(RequestScheduler(repo, bad), std::invalid_argument);
  bad = SchedulerOptions{};
  bad.workers_per_model = 0;
  EXPECT_THROW(RequestScheduler(repo, bad), std::invalid_argument);
}

TEST(RequestScheduler, UnknownModelAndBadShapeFailFast) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  auto r1 = sched.infer("nope", one_row(32));
  EXPECT_EQ(r1.status, InferStatus::kNotFound);
  EXPECT_FALSE(r1.error.empty());

  auto r2 = sched.infer("m", one_row(31));
  EXPECT_EQ(r2.status, InferStatus::kInvalidInput);

  InferRequest zero_rows;
  zero_rows.rows = 0;
  auto r3 = sched.infer("m", std::move(zero_rows));
  EXPECT_EQ(r3.status, InferStatus::kInvalidInput);
}

TEST(RequestScheduler, MatchesDirectSessionOutput) {
  auto bytes = tiny_container(11);
  ModelRepository repo;
  auto m = repo.load("m", bytes);

  // Oracle: a private session over the same container, decoded into the
  // same forms the repository's native-form store serves, so both run the
  // same kernels.
  serve::ModelStoreOptions opts;
  opts.native_form = true;
  serve::ModelStore store(bytes, opts);
  serve::InferenceSession session(store);
  tensor::Tensor x({1, 32});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = 0.01f * static_cast<float>(i);
  }
  auto expected = session.infer(x);

  RequestScheduler sched(repo);
  InferRequest req;
  req.rows = 1;
  req.input.assign(x.data(), x.data() + x.numel());
  auto got = sched.infer("m", std::move(req));

  ASSERT_EQ(got.status, InferStatus::kOk);
  ASSERT_EQ(got.rows, 1);
  ASSERT_EQ(got.cols, expected.dim(1));
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    EXPECT_FLOAT_EQ(got.output[static_cast<std::size_t>(i)], expected[i]);
  }
}

TEST(RequestScheduler, MultiRowRequestRoundTrips) {
  ModelRepository repo;
  auto m = repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  InferRequest req;
  req.rows = 5;
  req.input.assign(5 * 32, 0.125f);
  auto r = sched.infer("m", std::move(req));
  ASSERT_EQ(r.status, InferStatus::kOk);
  EXPECT_EQ(r.rows, 5);
  EXPECT_EQ(r.cols, m->out_features);
  EXPECT_EQ(r.output.size(), static_cast<std::size_t>(5 * m->out_features));
  // Identical rows in, identical logits out.
  for (std::size_t row = 1; row < 5; ++row) {
    for (std::int64_t c = 0; c < r.cols; ++c) {
      EXPECT_FLOAT_EQ(r.output[row * r.cols + c], r.output[c]);
    }
  }
}

TEST(RequestScheduler, CoalescesConcurrentRequestsIntoBatches) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  SchedulerOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 20000;  // generous window so the batch forms reliably
  opts.workers_per_model = 1; // single worker => one gather loop
  ServerMetrics metrics;
  RequestScheduler sched(repo, opts, &metrics);

  sched.infer("m", one_row(32));  // warm the worker's session first

  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(sched.submit("m", one_row(32)));
  }
  std::int64_t max_batch_rows = 0;
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_EQ(r.status, InferStatus::kOk);
    max_batch_rows = std::max(max_batch_rows, r.batch_rows);
  }
  EXPECT_GT(max_batch_rows, 1) << "no coalescing happened";
  EXPECT_LE(max_batch_rows, opts.max_batch);

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.ok, 9u);
  EXPECT_LT(snap.batches, 9u) << "every request ran alone";
  EXPECT_EQ(snap.batched_rows, 9u);
}

TEST(RequestScheduler, ShedsWhenQueueFull) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  SchedulerOptions opts;
  opts.max_batch = 1;
  opts.max_delay_us = 0;
  opts.queue_capacity = 2;
  opts.workers_per_model = 1;
  ServerMetrics metrics;
  RequestScheduler sched(repo, opts, &metrics);

  // Flood from many threads; with capacity 2 and batch 1, a burst of 64
  // one-row requests must shed at least once and never deadlock.
  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(sched.submit("m", one_row(32)));
  std::uint64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.status == InferStatus::kOk) ++ok;
    else if (r.status == InferStatus::kOverloaded) ++shed;
    else FAIL() << "unexpected status " << status_name(r.status);
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(metrics.snapshot().shed, shed);
}

TEST(RequestScheduler, ExpiredDeadlineShortCircuits) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  auto req = one_row(32);
  req.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);  // already expired
  auto r = sched.infer("m", std::move(req));
  EXPECT_EQ(r.status, InferStatus::kDeadlineExceeded);

  auto req2 = one_row(32);
  req2.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  EXPECT_EQ(sched.infer("m", std::move(req2)).status, InferStatus::kOk);
}

TEST(RequestScheduler, HotSwapBetweenRequestsPicksUpNewVersion) {
  ModelRepository repo;
  repo.load("m", tiny_container(1));
  RequestScheduler sched(repo);

  auto r1 = sched.infer("m", one_row(32));
  ASSERT_EQ(r1.status, InferStatus::kOk);

  repo.load("m", tiny_container(2));  // hot swap, different weights
  auto r2 = sched.infer("m", one_row(32));
  ASSERT_EQ(r2.status, InferStatus::kOk);
  EXPECT_NE(r1.output, r2.output) << "worker kept serving the old version";

  repo.unload("m");
  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kNotFound);
}

TEST(RequestScheduler, HotSwapToDifferentShapeInvalidatesQueued) {
  // A swap that changes input width between admission and execution must
  // surface as kInvalidInput, never as a crash or a silent wrong answer.
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);
  repo.load("m", testing::make_container({8, 4}));
  auto r = sched.infer("m", one_row(32));
  EXPECT_EQ(r.status, InferStatus::kInvalidInput);
}

TEST(RequestScheduler, ShutdownDrainsAndRejectsNewWork) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  auto sched = std::make_unique<RequestScheduler>(repo);

  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(sched->submit("m", one_row(32)));
  }
  sched->shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, InferStatus::kOk) << "shutdown dropped work";
  }
  EXPECT_EQ(sched->infer("m", one_row(32)).status,
            InferStatus::kShuttingDown);
  sched.reset();  // double-shutdown via destructor is fine
}

TEST(RequestScheduler, ForgetTearsDownAndRecreatesQueues) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kOk);
  sched.forget("m");           // workers joined, queue gone
  sched.forget("m");           // idempotent
  sched.forget("never-seen");  // unknown names are a no-op

  // The model is still loaded: the next request recreates the queue.
  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kOk);

  // unload + forget: queued work for the name completes kNotFound, and a
  // fresh submit fails fast.
  repo.unload("m");
  sched.forget("m");
  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kNotFound);
}

TEST(RequestScheduler, MultiRowGatherFillsByRows) {
  // Four 4-row requests against max_batch=16 with a long linger: the
  // rows-based wake predicate must close the batch as soon as 16 rows are
  // queued, not sleep out the window because only 4 REQUESTS arrived.
  ModelRepository repo;
  repo.load("m", tiny_container());
  SchedulerOptions opts;
  opts.max_batch = 16;
  opts.max_delay_us = 500000;  // would add 0.5 s per batch if we waited it out
  opts.workers_per_model = 1;
  RequestScheduler sched(repo, opts);

  sched.infer("m", one_row(32));  // warm the worker

  auto four_rows = [] {
    InferRequest r;
    r.rows = 4;
    r.input.assign(4 * 32, 0.25f);
    return r;
  };
  std::vector<std::future<InferResult>> futures;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) futures.push_back(sched.submit("m", four_rows()));
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, InferStatus::kOk);
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 400.0) << "gather slept out the linger window";
}

TEST(RequestScheduler, QueueDepthReporting) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);
  EXPECT_EQ(sched.queue_depth("m"), 0u);
  EXPECT_EQ(sched.queue_depth("ghost"), 0u);
  sched.infer("m", one_row(32));
  EXPECT_EQ(sched.queue_depth("m"), 0u);  // drained
}

// Worker sessions serve the store's decoded layers directly, so serving a
// model must grow the heap by about what the store caches — not by a
// per-worker copy of the network's weight and gradient tensors.
TEST(RequestScheduler, WorkersAddNoHeapBeyondTheDecodedLayers) {
  if (!deepsz::testing::heap_in_use()) {
    GTEST_SKIP() << "mallinfo2 cannot measure this process's heap";
  }
  // LeNet-300-shaped, ~10% of the weights kept.
  const std::vector<std::int64_t> dims = {784, 300, 100, 10};
  std::vector<sparse::PrunedLayer> layers;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(i + 1), dims[i + 1], dims[i], 0.1, 300 + i));
  }
  auto bytes = core::encode_model(layers, {}, core::ContainerOptions{}).bytes;

  ModelRepository repo;
  auto model = repo.load("lenet", std::move(bytes));
  SchedulerOptions opts;
  opts.workers_per_model = 2;
  RequestScheduler sched(repo, opts);

  const std::size_t before = *deepsz::testing::heap_in_use();
  for (std::int64_t rows : {std::int64_t{1}, std::int64_t{16}}) {
    InferRequest req;
    req.rows = rows;
    req.input.assign(static_cast<std::size_t>(rows * dims.front()), 0.5f);
    ASSERT_EQ(sched.infer("lenet", std::move(req)).status, InferStatus::kOk);
  }
  const std::size_t after = *deepsz::testing::heap_in_use();

  const std::size_t cached = model->store->stats().cached_bytes;
  ASSERT_GT(cached, 0u);
  const std::size_t grown = after > before ? after - before : 0;
  EXPECT_LE(grown, 2 * cached + (std::size_t{512} << 10))
      << "heap grew " << grown << " bytes serving a model whose decoded "
      << "layers hold " << cached << " bytes";
}

}  // namespace
}  // namespace deepsz::server
