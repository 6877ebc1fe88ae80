#include "server/scheduler.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "serve/inference_session.h"
#include "util/timer.h"

namespace deepsz::server {

using Clock = std::chrono::steady_clock;

namespace {
double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

InferResult fail(InferStatus status, std::string why) {
  InferResult r;
  r.status = status;
  r.error = std::move(why);
  return r;
}
}  // namespace

/// A worker's session over one model version. Rebuilt whenever the
/// repository snapshot changes (hot swap); the old session dies before the
/// snapshot that owns its store is released.
struct RequestScheduler::WorkerState {
  std::shared_ptr<const ServedModel> model;
  std::unique_ptr<serve::InferenceSession> session;

  void bind(std::shared_ptr<const ServedModel> next) {
    // The repository's native-form store serves pruned layers CSR-only, so
    // the session runs them through the sparse kernel at every batch size.
    session = std::make_unique<serve::InferenceSession>(*next->store);
    model = std::move(next);
  }
};

RequestScheduler::RequestScheduler(ModelRepository& repository,
                                   SchedulerOptions options,
                                   ServerMetrics* metrics)
    : repo_(repository), options_(options), metrics_(metrics) {
  if (options_.max_batch < 1 || options_.workers_per_model < 1 ||
      options_.queue_capacity < 1 || options_.max_delay_us < 0) {
    throw std::invalid_argument(
        "RequestScheduler: need max_batch >= 1, workers_per_model >= 1, "
        "queue_capacity >= 1, max_delay_us >= 0");
  }
}

RequestScheduler::~RequestScheduler() { shutdown(); }

RequestScheduler::ModelQueue& RequestScheduler::queue_for(
    const std::string& name) {
  auto it = queues_.find(name);
  if (it == queues_.end()) {
    it = queues_.emplace(name, std::make_unique<ModelQueue>()).first;
    ModelQueue& mq = *it->second;
    for (int w = 0; w < options_.workers_per_model; ++w) {
      mq.workers.emplace_back([this, name, &mq] { worker_loop(name, mq); });
    }
  }
  return *it->second;
}

std::future<InferResult> RequestScheduler::submit(const std::string& model,
                                                  InferRequest req) {
  std::promise<InferResult> ready;
  auto fut = ready.get_future();

  auto snapshot = repo_.get(model);
  if (snapshot == nullptr) {
    if (metrics_) metrics_->record_result(InferStatus::kNotFound, 0.0);
    ready.set_value(fail(InferStatus::kNotFound,
                         "no model \"" + model + "\" loaded"));
    return fut;
  }
  if (req.rows < 1 ||
      req.input.size() != static_cast<std::size_t>(req.rows) *
                              static_cast<std::size_t>(snapshot->in_features)) {
    if (metrics_) metrics_->record_result(InferStatus::kInvalidInput, 0.0);
    ready.set_value(fail(
        InferStatus::kInvalidInput,
        "expected rows x " + std::to_string(snapshot->in_features) +
            " floats, got " + std::to_string(req.input.size()) + " for rows=" +
            std::to_string(req.rows)));
    return fut;
  }

  Pending pending;
  pending.req = std::move(req);
  pending.enqueued = Clock::now();

  {
    util::MutexLock map_lock(map_mu_);
    if (shutdown_) {
      if (metrics_) metrics_->record_result(InferStatus::kShuttingDown, 0.0);
      ready.set_value(fail(InferStatus::kShuttingDown, "server shutting down"));
      return fut;
    }
    if (queues_.find(model) == queues_.end() && repo_.get(model) == nullptr) {
      // The model was unloaded (and its queue forgotten) between the check
      // above and here: creating a fresh queue now would resurrect idle
      // worker threads for a dead name.
      if (metrics_) metrics_->record_result(InferStatus::kNotFound, 0.0);
      ready.set_value(fail(InferStatus::kNotFound,
                           "no model \"" + model + "\" loaded"));
      return fut;
    }
    ModelQueue& mq = queue_for(model);
    util::MutexLock lock(mq.m);
    if (mq.q.size() >= options_.queue_capacity) {
      // Shed at admission: the queue wait is genuinely zero, and recording
      // it keeps the rejected-wait histogram honest about admission sheds.
      if (metrics_) {
        metrics_->record_result(InferStatus::kOverloaded, 0.0, 0.0);
      }
      ready.set_value(fail(InferStatus::kOverloaded,
                           "queue full (" +
                               std::to_string(options_.queue_capacity) +
                               " pending) for model \"" + model + "\""));
      return fut;
    }
    fut = pending.promise.get_future();
    mq.queued_rows += pending.req.rows;
    mq.q.push_back(std::move(pending));
    if (metrics_) metrics_->on_enqueue();
    mq.cv.notify_one();
  }
  return fut;
}

InferResult RequestScheduler::infer(const std::string& model,
                                    InferRequest req) {
  return submit(model, std::move(req)).get();
}

void RequestScheduler::take_front_locked(ModelQueue& mq,
                                         std::vector<Pending>& batch,
                                         std::int64_t& rows) {
  rows += mq.q.front().req.rows;
  mq.queued_rows -= mq.q.front().req.rows;
  batch.push_back(std::move(mq.q.front()));
  mq.q.pop_front();
}

void RequestScheduler::drain_fitting_locked(ModelQueue& mq,
                                            std::vector<Pending>& batch,
                                            std::int64_t& rows) const {
  while (rows < options_.max_batch && !mq.q.empty() &&
         rows + mq.q.front().req.rows <= options_.max_batch) {
    take_front_locked(mq, batch, rows);
  }
}

void RequestScheduler::worker_loop(std::string name, ModelQueue& mq) {
  WorkerState state;
  for (;;) {
    std::vector<Pending> batch;
    std::int64_t rows = 0;
    Clock::time_point gather_t0{};
    {
      util::MutexLock lock(mq.m);
      if (mq.q.empty() && !mq.stop && state.session) {
        // Going idle: drop this worker's layer pins so the shared cache
        // budget really governs residency — pinned layers survive eviction,
        // and a worker that held its pins forever would keep every model it
        // ever served resident regardless of --cache-mb. Warm re-installs
        // on the next batch are map lookups (and refresh global LRU
        // recency), so a busy worker never gets here and pays nothing.
        state.session->release_layers();
      }
      while (!mq.stop && mq.q.empty()) mq.cv.wait(mq.m);
      if (mq.q.empty()) return;  // stop && drained

      take_front_locked(mq, batch, rows);
      gather_t0 = Clock::now();

      // Gather: drain whatever is queued, then (unless stopping) linger up
      // to max_delay_us from the first pop for stragglers to coalesce. The
      // linger wakes only when enough ROWS queued up to fill the batch (or
      // on stop), not on every arrival — per-request wakeups here would
      // cost more than the batching saves.
      const auto close_at =
          Clock::now() + std::chrono::microseconds(options_.max_delay_us);
      for (;;) {
        drain_fitting_locked(mq, batch, rows);
        if (rows >= options_.max_batch || mq.stop ||
            options_.max_delay_us == 0) {
          break;
        }
        // Queue non-empty here means the head does not fit the remaining
        // batch space — run what we have; waiting could never admit it.
        if (!mq.q.empty()) break;
        const std::int64_t needed = options_.max_batch - rows;
        bool window_closed = false;
        while (!mq.stop && mq.queued_rows < needed) {
          if (mq.cv.wait_until(mq.m, close_at) == std::cv_status::timeout) {
            window_closed = true;
            break;
          }
        }
        if (window_closed) {
          drain_fitting_locked(mq, batch, rows);  // take stragglers, then run
          break;
        }
      }
    }
    if (metrics_) metrics_->on_dequeue(static_cast<std::int64_t>(batch.size()));
    if (obs::Tracer::enabled()) {
      // The linger window: first pop of this batch until the gather closed.
      const std::uint64_t t0 = obs::to_trace_ns(gather_t0);
      const std::uint64_t t1 = obs::to_trace_ns(Clock::now());
      obs::Tracer::emit("linger", "server", name,
                        std::to_string(batch.size()) + "req", t0,
                        t1 > t0 ? t1 - t0 : 0);
    }
    execute_batch(name, std::move(batch), state);
  }
}

void RequestScheduler::finish(Pending& p, InferResult result) {
  if (metrics_) {
    metrics_->record_result(result.status, ms_since(p.enqueued, Clock::now()),
                            result.queue_ms);
  }
  p.promise.set_value(std::move(result));
}

/// One "queue" span per request that reached a batch: admission to batch
/// start, phase "ok" or "expired".
void RequestScheduler::trace_queue_wait(const std::string& name,
                                        const Pending& p,
                                        Clock::time_point batch_start,
                                        const char* outcome) {
  if (!obs::Tracer::enabled()) return;
  const std::uint64_t t0 = obs::to_trace_ns(p.enqueued);
  const std::uint64_t t1 = obs::to_trace_ns(batch_start);
  obs::Tracer::emit("queue", "server", name, outcome, t0,
                    t1 > t0 ? t1 - t0 : 0);
  obs::Tracer::record_stage("queue", name,
                            ms_since(p.enqueued, batch_start));
}

void RequestScheduler::execute_batch(const std::string& name,
                                     std::vector<Pending> batch,
                                     WorkerState& state) {
  const auto start = Clock::now();

  // Deadline-expired requests complete without touching the model; the rest
  // proceed. (A deadline covers queueing, not the forward pass: once a
  // request makes it into a batch it runs.)
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p.req.has_deadline() && p.req.deadline < start) {
      trace_queue_wait(name, p, start, "expired");
      InferResult r = fail(InferStatus::kDeadlineExceeded, "deadline expired");
      r.queue_ms = ms_since(p.enqueued, start);
      finish(p, std::move(r));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  auto model = repo_.get(name);
  if (model == nullptr) {
    for (auto& p : live) {
      finish(p, fail(InferStatus::kNotFound,
                     "model \"" + name + "\" was unloaded"));
    }
    return;
  }

  // Shape re-check against the *current* snapshot: a hot swap between
  // admission and execution may have changed the input width.
  std::vector<Pending> runnable;
  runnable.reserve(live.size());
  std::int64_t rows = 0;
  for (auto& p : live) {
    if (p.req.input.size() != static_cast<std::size_t>(p.req.rows) *
                                  static_cast<std::size_t>(model->in_features)) {
      finish(p, fail(InferStatus::kInvalidInput,
                     "model \"" + name + "\" input width changed to " +
                         std::to_string(model->in_features) +
                         " while the request was queued"));
    } else {
      rows += p.req.rows;
      runnable.push_back(std::move(p));
    }
  }
  if (runnable.empty()) return;

  try {
    if (state.model != model) state.bind(model);

    tensor::Tensor x({rows, model->in_features});
    float* dst = x.data();
    for (const auto& p : runnable) {
      std::memcpy(dst, p.req.input.data(),
                  p.req.input.size() * sizeof(float));
      dst += p.req.input.size();
    }

    for (const auto& p : runnable) trace_queue_wait(name, p, start, "ok");

    util::WallTimer forward;
    obs::TraceSpan forward_span("forward", "server");
    forward_span.set_detail(name);
    forward_span.set_phase(std::to_string(rows) + "rows");
    forward_span.set_stage(name);
    tensor::Tensor y = state.session->infer(x);
    forward_span.close();
    const double forward_ms = forward.millis();
    if (metrics_) metrics_->record_batch(rows, forward_ms);

    const std::int64_t cols = y.dim(1);
    const float* src = y.data();
    for (auto& p : runnable) {
      InferResult r;
      r.status = InferStatus::kOk;
      r.rows = p.req.rows;
      r.cols = cols;
      r.output.assign(src, src + p.req.rows * cols);
      src += p.req.rows * cols;
      r.queue_ms = ms_since(p.enqueued, start);
      r.compute_ms = forward_ms;
      r.batch_rows = rows;
      finish(p, std::move(r));
    }
  } catch (const std::exception& e) {
    // A corrupt layer or a mid-flight unload surfacing as a decode failure
    // fails this batch, not the worker: drop the session so the next batch
    // starts a fresh one.
    state.session.reset();
    state.model.reset();
    for (auto& p : runnable) {
      finish(p, fail(InferStatus::kInternalError, e.what()));
    }
  }
}

void RequestScheduler::forget(const std::string& model) {
  std::unique_ptr<ModelQueue> mq;
  {
    util::MutexLock lock(map_mu_);
    if (shutdown_) return;  // shutdown() already owns every queue
    auto it = queues_.find(model);
    if (it == queues_.end()) return;
    mq = std::move(it->second);
    queues_.erase(it);
    // From here no submit can reach this queue (submits find the map entry
    // gone and create a fresh one); joining outside map_mu_ keeps other
    // models' traffic flowing while the workers drain.
  }
  {
    util::MutexLock lock(mq->m);
    mq->stop = true;
  }
  mq->cv.notify_all();
  for (auto& worker : mq->workers) worker.join();
}

void RequestScheduler::shutdown() {
  std::vector<ModelQueue*> queues;
  {
    util::MutexLock lock(map_mu_);
    if (shutdown_) return;
    shutdown_ = true;
    for (auto& [_, mq] : queues_) queues.push_back(mq.get());
  }
  for (ModelQueue* mq : queues) {
    {
      util::MutexLock lock(mq->m);
      mq->stop = true;
    }
    mq->cv.notify_all();
  }
  for (ModelQueue* mq : queues) {
    for (auto& worker : mq->workers) worker.join();
  }
}

std::size_t RequestScheduler::queue_depth(const std::string& model) const {
  util::MutexLock map_lock(map_mu_);
  auto it = queues_.find(model);
  if (it == queues_.end()) return 0;
  util::MutexLock lock(it->second->m);
  return it->second->q.size();
}

}  // namespace deepsz::server
