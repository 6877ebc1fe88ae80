// Benchmark binary for deepsz: three workloads measured end to end against
// the shipped daemon (`deepsz_tool serve`, default flags, loopback HTTP) or
// the compression library, plus a traced mode that times each layer's public
// functions on the same inputs. Writes raw samples as JSON; run.py turns
// them into metrics. See README.md in this directory.
//
//   perfbench prepare --cache DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --cache DIR --tool PATH --out FILE
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "codec/registry.h"
#include "compress/registry.h"
#include "compress/session.h"
#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "core/pipeline.h"
#include "core/pruner.h"
#include "harness.h"
#include "modelzoo/paper_specs.h"
#include "modelzoo/pretrained.h"
#include "modelzoo/zoo.h"
#include "nn/sgd.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "serve/sparse_forward.h"
#include "sparse/pruning.h"
#include "server/server.h"
#include "sz/sz.h"
#include "tensor/gemm.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/rng.h"

using namespace deepsz;
using perfbench::HttpClient;
using perfbench::Json;
using perfbench::ms_between;
using perfbench::now_ns;
using perfbench::process_cpu_seconds;
using perfbench::spans;

namespace {

// The daemon's shipped max_batch, which the closed loop's request size and
// in-flight depth key off.
constexpr int kMaxBatch = 16;

// Open-loop 1-row request rates, below each model's saturation point. The
// p99 needs 10 samples beyond it, hence at least 1000 requests.
constexpr double kLenetRate = 400.0;
constexpr double kAlexnetRate = 100.0;
constexpr int kMinOpenLoopSamples = 1000;
// Closed loop: connections, and requests each keeps in flight (HTTP
// pipelining), so the server never waits on the generator's turnaround:
// 64 rows in flight. Two connections leave the daemon's two workers most of
// the host's cores, which steadies its CPU time per request.
constexpr int kClosedLoopConnections = 2;
constexpr std::size_t kPipelineDepth = 2;
// Unmeasured start of each closed loop.
constexpr double kWarmupSeconds = 0.5;
// Setup repetitions per run (setup_s reports their median). The LeNet
// daemon is up in ~20 ms, so it is repeated more to steady the median.
constexpr int kLenetSetupReps = 11;
constexpr int kAlexnetSetupReps = 3;
constexpr int kCompressSetupReps = 5;
// Daemon processes a lenet-serve run measures in turn: the CPU time per
// request moves by up to ±10% between daemon processes, so a run takes the
// median over several.
constexpr int kLenetDaemons = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache;
  std::string tool;
  std::string out;
};

// ------------------------------------------------------------ bookkeeping

/// Everything one run measures, serialised for run.py.
struct Results {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few messages
  std::map<std::string, std::vector<double>> samples;  // timing samples
  std::map<std::string, double> values;                // scalars
  std::map<std::string, std::vector<std::int64_t>> open_loop;  // ns arrays

  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  /// Counts one checked operation.
  void check(bool good, const std::string& what) {
    if (good) {
      ++attempted;
    } else {
      fail(what);
    }
  }
};

std::mutex g_results_mu;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int generator_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n == 0 ? 1u : n, 1u, 4u));
}

// ------------------------------------------------------------ inputs

/// Request rows drawn from the workload seed, with the reference logits an
/// in-process forward of each served container gives for them.
struct Pool {
  std::int64_t rows = 0;
  std::int64_t in = 0;
  std::int64_t out = 0;
  std::vector<float> x;                       // rows x in
  std::map<std::string, std::vector<float>> ref;  // container tag -> rows x out

  std::span<const float> row(std::int64_t i) const {
    return {x.data() + i * in, static_cast<std::size_t>(in)};
  }
};

Pool make_pool(std::int64_t rows, std::int64_t in, std::uint64_t seed) {
  Pool p;
  p.rows = rows;
  p.in = in;
  p.x.resize(static_cast<std::size_t>(rows * in));
  util::Pcg32 rng(seed, 0x5eed);
  // Non-negative activations, as the input of a post-ReLU fc stack.
  for (auto& v : p.x) v = static_cast<float>(rng.uniform());
  return p;
}

/// Reference logits: the generic (unbatched-kernel) session path.
void add_reference(Pool& p, const std::string& tag,
                   const std::vector<std::uint8_t>& container) {
  serve::ModelStore store(container);
  auto net = serve::make_fc_network(store.reader());
  serve::InferenceSession session(store, net);
  auto out = session.infer(tensor::Tensor::from({p.rows, p.in}, p.x));
  p.out = out.dim(1);
  p.ref[tag].assign(out.flat().begin(), out.flat().end());
}

/// Infer reply check: 200, rows x cols, finite, within 1e-4 relative of the
/// reference rows starting at pool row `first`.
bool reply_ok(const perfbench::HttpReply& reply, const Pool& p,
              const std::string& tag, std::int64_t first, std::int64_t rows,
              std::string* why) {
  if (reply.status != 200) {
    *why = "status " + std::to_string(reply.status);
    return false;
  }
  std::uint32_t r = 0, c = 0;
  std::vector<float> got;
  if (!perfbench::decode_rows(reply.body, &r, &c, &got) || r != rows ||
      c != p.out) {
    *why = "bad reply shape";
    return false;
  }
  const auto& ref = p.ref.at(tag);
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* want = ref.data() + ((first + i) % p.rows) * p.out;
    const float* have = got.data() + i * p.out;
    float scale = 1e-6f;
    for (std::int64_t j = 0; j < p.out; ++j) {
      scale = std::max(scale, std::fabs(want[j]));
    }
    for (std::int64_t j = 0; j < p.out; ++j) {
      if (!std::isfinite(have[j]) ||
          std::fabs(have[j] - want[j]) > 1e-4f * scale) {
        *why = "logit mismatch";
        return false;
      }
    }
  }
  return true;
}

/// Pre-encoded request bodies: body k holds pool rows k*rows .. k*rows+rows-1.
std::vector<std::vector<std::uint8_t>> make_bodies(const Pool& p,
                                                   std::int64_t rows) {
  std::vector<std::vector<std::uint8_t>> bodies;
  const std::int64_t n = p.rows / rows;
  for (std::int64_t k = 0; k < n; ++k) {
    bodies.push_back(perfbench::encode_rows(
        {p.x.data() + k * rows * p.in, static_cast<std::size_t>(rows * p.in)},
        static_cast<std::uint32_t>(rows), static_cast<std::uint32_t>(p.in)));
  }
  return bodies;
}

// ------------------------------------------------------------ HTTP load

/// Open loop: request i is due at t0 + i/rate whatever happened before it;
/// latency runs from the due time, so a stall charges every request it
/// delays. generator_threads() connections send in parallel. Appends to
/// the run's open-loop arrays, and records the daemon CPU time per request
/// over the whole loop as one sample.
void open_loop(const perfbench::Daemon& daemon, const std::string& model,
               const Pool& p, const std::string& tag, double rate, int n,
               Results& res) {
  const auto bodies = make_bodies(p, 1);
  const std::string target = "/v1/models/" + model + ":infer";
  std::vector<std::int64_t> due(n), sent(n), done(n);
  std::atomic<int> next{0};
  const int threads = generator_threads();
  // Connections outlive the loop until the closing CPU sample (see
  // closed_loop).
  std::vector<std::unique_ptr<HttpClient>> clients(threads);
  const auto cpu0 = daemon.thread_cpu();
  const std::int64_t t0 = now_ns() + 20'000'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto& client = clients[t];
      for (int i; (i = next.fetch_add(1)) < n;) {
        due[i] = t0 + static_cast<std::int64_t>(i * 1e9 / rate);
        const std::int64_t left = due[i] - now_ns();
        if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
        sent[i] = now_ns();
        std::string why;
        bool good = false;
        try {
          if (!client) client = std::make_unique<HttpClient>(daemon.port());
          const auto& body = bodies[static_cast<std::size_t>(i) % bodies.size()];
          auto reply = client->request("POST", target, body);
          good = reply_ok(reply, p, tag, i % static_cast<int>(bodies.size()), 1,
                          &why);
        } catch (const std::exception& e) {
          why = e.what();
          client.reset();
        }
        done[i] = now_ns();
        std::lock_guard<std::mutex> lock(g_results_mu);
        res.check(good, "open-loop infer: " + why);
      }
    });
  }
  for (auto& th : pool) th.join();
  res.samples["open_loop_cpu_ms_per_request"].push_back(
      perfbench::cpu_between(cpu0, daemon.thread_cpu()) * 1e3 / n);
  const auto append = [&](const char* key, const std::vector<std::int64_t>& v) {
    auto& all = res.open_loop[key];
    all.insert(all.end(), v.begin(), v.end());
  };
  append("due_ns", due);
  append("sent_ns", sent);
  append("done_ns", done);
  res.values["open_loop_rate"] = rate;
  res.values["open_loop_threads"] = threads;
}

/// Closed loop: each connection keeps kPipelineDepth requests of max_batch
/// rows in flight and sends the next when a reply arrives, so >= 2 x
/// max_batch rows are always queued and batches close on row count, not on
/// the linger. The first `warmup_s` are not counted: they make both workers
/// build their state for the served version. Records, as one sample each,
/// rows answered (and checked) per second of wall time and per second of
/// daemon CPU time, and the daemon CPU time per request.
void closed_loop(const perfbench::Daemon& daemon, const std::string& model,
                 const Pool& p, const std::string& tag, double warmup_s,
                 double seconds, Results& res) {
  const int threads = std::min(kClosedLoopConnections, generator_threads());
  const std::int64_t rows = kMaxBatch;
  const auto bodies = make_bodies(p, rows);
  const std::string target = "/v1/models/" + model + ":infer";
  std::atomic<std::int64_t> good_rows{0};
  // Connections stay open until the closing CPU sample is taken: the sample
  // sums the daemon's live threads, and a connection's server thread exits
  // with the connection, taking its run time with it.
  std::atomic<bool> sampled{false};
  const std::int64_t start = now_ns() + static_cast<std::int64_t>(warmup_s * 1e9);
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::unique_ptr<HttpClient> client;
      std::deque<std::size_t> in_flight;  // body index per pending request
      std::size_t k = static_cast<std::size_t>(t);
      while (now_ns() < stop || !in_flight.empty()) {
        std::string why;
        bool good = false;
        try {
          if (!client) client = std::make_unique<HttpClient>(daemon.port());
          while (now_ns() < stop && in_flight.size() < kPipelineDepth) {
            in_flight.push_back(k % bodies.size());
            client->send("POST", target, bodies[k % bodies.size()]);
            k += static_cast<std::size_t>(threads);
          }
          const std::size_t b = in_flight.front();
          in_flight.pop_front();
          auto reply = client->receive();
          good = reply_ok(reply, p, tag, static_cast<std::int64_t>(b) * rows,
                          rows, &why);
        } catch (const std::exception& e) {
          why = e.what();
          client.reset();
          in_flight.clear();
        }
        if (good) good_rows += rows;
        std::lock_guard<std::mutex> lock(g_results_mu);
        res.check(good, "closed-loop infer: " + why);
      }
      while (!sampled.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start)));
  const std::int64_t rows0 = good_rows.load();
  const auto cpu0 = daemon.thread_cpu();
  const std::int64_t t0 = now_ns();
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(stop)));
  const auto counted = static_cast<double>(good_rows.load() - rows0);
  const double cpu = perfbench::cpu_between(cpu0, daemon.thread_cpu());
  res.samples["closed_loop_cpu_ms_per_request"].push_back(cpu * 1e3 * rows / counted);
  res.samples["rows_per_cpu_s"].push_back(counted / cpu);
  res.samples["rows_per_s"].push_back(counted / (ms_between(t0, now_ns()) / 1e3));
  sampled.store(true);
  for (auto& th : pool) th.join();
  res.values["closed_loop_threads"] = threads;
  res.values["closed_loop_rows_per_request"] = static_cast<double>(rows);
}

/// One checked 1-row infer over an existing connection.
bool infer_once(HttpClient& client, const std::string& model, const Pool& p,
                const std::string& tag, std::int64_t row, std::string* why) {
  const auto body = perfbench::encode_rows(p.row(row), 1,
                                           static_cast<std::uint32_t>(p.in));
  auto reply = client.request("POST", "/v1/models/" + model + ":infer", body);
  return reply_ok(reply, p, tag, row, 1, why);
}

std::vector<std::string> serve_args(const std::string& model,
                                    const std::string& path) {
  // Default flags apart from the port: the tool's own max_batch, linger,
  // workers, cache budget and tracing.
  return {"serve", "--model", model + "=" + path, "--port", "0"};
}

/// Daemon start -> model loaded -> first infer answered.
std::unique_ptr<perfbench::Daemon> start_daemon(
    const Args& a, const std::string& model, const std::string& path,
    const Pool& p, const std::string& tag, Results& res) {
  auto daemon = std::make_unique<perfbench::Daemon>(
      a.tool, serve_args(model, path), a.out + ".daemon.log");
  HttpClient client(daemon->port());
  std::string why;
  res.check(infer_once(client, model, p, tag, 0, &why), "first infer: " + why);
  return daemon;
}

void stop_daemon(std::unique_ptr<perfbench::Daemon>& daemon, Results& res) {
  res.samples["peak_rss_mb"].push_back(daemon->peak_rss_mb());
  res.check(daemon->stop() == 0, "daemon exit status");
  daemon.reset();
}

/// Times start_daemon `reps` times (setup_s); keeps the last daemon running.
std::unique_ptr<perfbench::Daemon> setup_daemon(
    const Args& a, const std::string& model, const std::string& path,
    const Pool& p, const std::string& tag, int reps, Results& res) {
  std::unique_ptr<perfbench::Daemon> daemon;
  for (int rep = 0; rep < reps; ++rep) {
    if (daemon) res.check(daemon->stop() == 0, "daemon exit status");
    const std::int64_t t0 = now_ns();
    daemon = start_daemon(a, model, path, p, tag, res);
    res.samples["setup_s"].push_back(ms_between(t0, now_ns()) / 1e3);
  }
  return daemon;
}

// ------------------------------------------------------------ model inputs

std::string cache_path(const Args& a, const std::string& file) {
  return a.cache + "/" + file;
}

std::map<std::string, double> paper_ebs(const std::string& key) {
  std::map<std::string, double> ebs;
  for (const auto& fc : modelzoo::paper_spec(key).fc) ebs[fc.layer] = fc.chosen_eb;
  return ebs;
}

/// The AlexNet head the paper's Table 2 describes: fc7 and fc8 at their
/// paper keep ratios (synthesized trained-like weights, cached on disk).
std::vector<sparse::PrunedLayer> alexnet_head() {
  std::vector<sparse::PrunedLayer> layers;
  for (const auto& fc : modelzoo::paper_spec("alexnet").fc) {
    if (fc.layer == "fc7" || fc.layer == "fc8") {
      layers.push_back(bench::paper_scale_layer("alexnet", fc));
    }
  }
  return layers;
}

/// A rollout target: the last layer's rows {0, 8, 16, ...} fine-tuned
/// (scaled by 1 + N(0, 0.02)), the other layers frozen. The sparsity mask
/// is unchanged.
std::vector<sparse::PrunedLayer> rollout_target(
    std::vector<sparse::PrunedLayer> layers) {
  auto& last = layers.back();
  auto dense = last.to_dense();
  util::Pcg32 rng(8, 8);
  for (std::int64_t r = 0; r < last.rows; r += 8) {
    for (std::int64_t c = 0; c < last.cols; ++c) {
      float& w = dense[static_cast<std::size_t>(r * last.cols + c)];
      if (w != 0.0f) w *= static_cast<float>(1.0 + 0.02 * rng.normal());
    }
  }
  last = sparse::PrunedLayer::from_dense(dense, last.rows, last.cols, last.name);
  return layers;
}

/// A fresh copy of the pruned+retrained LeNet-300 (masks installed).
nn::Network lenet_pruned_copy() {
  auto net = modelzoo::make_by_key("lenet300");
  net.load(modelzoo::cache_dir() + "/lenet300_pruned_v1.weights");
  for (auto* d : net.dense_layers()) {
    std::vector<float> w(d->weight().flat().begin(), d->weight().flat().end());
    d->set_mask(sparse::nonzero_mask(w));
  }
  return net;
}

/// One DeepSZ pipeline run: Assess + Optimize + Encode on an adopted
/// pruned network (Prune is done once, in prepare).
compress::CompressReport run_pipeline(nn::Network& net,
                                      const modelzoo::TrainedModel& m,
                                      double* seconds,
                                      double* cpu_seconds) {
  auto strategy = compress::CompressorRegistry::instance().make("deepsz");
  compress::CompressionSession session(strategy, net, m.train.images,
                                       m.train.labels, m.test.images,
                                       m.test.labels);
  session.adopt_pruned();
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_seconds();
  session.run_assess();
  session.run_optimize();
  session.run_encode();
  *seconds = ms_between(t0, now_ns()) / 1e3;
  *cpu_seconds = process_cpu_seconds() - cpu0;
  return session.report();
}

/// Decodes `bytes` and checks every layer against `originals`: same index
/// stream, every value within its layer's error bound.
bool container_within_bounds(const std::vector<std::uint8_t>& bytes,
                             const std::vector<sparse::PrunedLayer>& originals,
                             const std::map<std::string, double>& ebs,
                             std::string* why) {
  auto decoded = core::decode_model(bytes, false);
  if (decoded.layers.size() != originals.size()) {
    *why = "layer count";
    return false;
  }
  for (std::size_t i = 0; i < originals.size(); ++i) {
    const auto& want = originals[i];
    const auto& got = decoded.layers[i];
    const double eb = ebs.at(want.name);
    if (got.index != want.index || got.data.size() != want.data.size()) {
      *why = want.name + " index mismatch";
      return false;
    }
    for (std::size_t k = 0; k < want.data.size(); ++k) {
      if (std::fabs(static_cast<double>(got.data[k]) - want.data[k]) >
          eb * (1 + 1e-6)) {
        *why = want.name + " exceeds eb";
        return false;
      }
    }
  }
  return true;
}

/// Checks a pipeline's container against the pruned layers it encoded, at
/// the error bounds the optimizer chose.
void check_pipeline_container(const compress::CompressReport& report,
                              const std::vector<sparse::PrunedLayer>& originals,
                              Results& res) {
  std::map<std::string, double> ebs;
  for (const auto& choice : report.chosen.choices) ebs[choice.layer] = choice.eb;
  std::string why;
  res.check(container_within_bounds(report.model.bytes, originals, ebs, &why),
            "pipeline container: " + why);
}

std::uint32_t crc_of(const std::vector<float>& v) {
  return util::crc32({reinterpret_cast<const std::uint8_t*>(v.data()),
                      v.size() * sizeof(float)});
}

/// A rollout delta: the target diffed against the base, default
/// DeltaOptions.
std::vector<std::uint8_t> encode_rollout_delta(
    const std::vector<std::uint8_t>& base,
    const std::vector<std::uint8_t>& target, const std::string& base_id) {
  core::DeltaOptions dopts;
  dopts.base_id = base_id;
  return core::encode_delta_model(base, target, dopts).bytes;
}

/// Dense fp32 bytes of a container's layers over its compressed payload,
/// as core::EncodedModel::compression_ratio() gives it at encode time.
double container_ratio(const std::vector<std::uint8_t>& container) {
  core::ContainerReader reader(container);
  double dense = 0.0;
  for (const auto& e : reader.entries()) {
    dense += static_cast<double>(e.rows * e.cols) * sizeof(float);
  }
  return dense / static_cast<double>(reader.payload_bytes());
}

/// Error bound per layer, as a container records them.
std::map<std::string, double> container_ebs(
    const std::vector<std::uint8_t>& container) {
  const core::ContainerReader reader(container);
  std::map<std::string, double> ebs;
  for (const auto& e : reader.entries()) ebs[e.name] = e.eb;
  return ebs;
}

// ------------------------------------------------------------ prepare

/// Fills the benchmark-private cache once, before any timed run: trains and
/// prunes LeNet-300, runs the DeepSZ pipeline for the served container,
/// synthesizes + encodes the AlexNet head and its rollout target, and diffs
/// the two into the rollout delta. Files already present are kept.
int prepare(const Args& a) {
  namespace fs = std::filesystem;
  const std::string lenet = cache_path(a, "lenet300.dszc");
  if (!fs::exists(lenet)) {
    (void)bench::pretrained_pruned("lenet300");
    auto m = modelzoo::pretrained("lenet300");
    auto net = lenet_pruned_copy();
    double s = 0, cpu = 0;
    auto report = run_pipeline(net, m, &s, &cpu);
    perfbench::write_file(lenet, report.model.bytes);
  }
  const std::string base = cache_path(a, "alexnet_head.dszc");
  const std::string target = cache_path(a, "alexnet_head_target.dszc");
  if (!fs::exists(base) || !fs::exists(target)) {
    const auto layers = alexnet_head();
    const auto ebs = paper_ebs("alexnet");
    perfbench::write_file(base, core::encode_model(layers, ebs).bytes);
    perfbench::write_file(
        target, core::encode_model(rollout_target(layers), ebs).bytes);
  }
  const std::string delta = cache_path(a, "alexnet_head_delta.dszc");
  if (!fs::exists(delta)) {
    perfbench::write_file(delta, encode_rollout_delta(perfbench::read_file(base),
                                                      perfbench::read_file(target),
                                                      "alexnet_head.dszc"));
  }
  return 0;
}

// ------------------------------------------------------------ traced probes

/// Runs `round` at least once and until `seconds` have passed.
void for_seconds(double seconds, const std::function<void()>& round) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    round();
  } while (now_ns() < end);
}

/// Times `fn` `reps` times under span `name`.
template <class Fn>
void repeat(const std::string& name, int reps, Fn&& fn) {
  for (int i = 0; i < reps; ++i) spans().time(name, fn);
}

/// In-process probes of one served container's decode, build and forward
/// layers (serve, nn, tensor, core, util).
void probe_serving_layers(const std::vector<std::uint8_t>& container,
                          const Pool& p, int reps) {
  const auto tensor1 = tensor::Tensor::from({1, p.in},
                                            {p.x.begin(), p.x.begin() + p.in});
  const auto tensor16 = tensor::Tensor::from(
      {kMaxBatch, p.in}, {p.x.begin(), p.x.begin() + kMaxBatch * p.in});

  repeat("core.reader_open_ms", reps * 10, [&] {
    return core::ContainerReader(container).num_layers();
  });
  for (int i = 0; i < reps; ++i) {
    auto d = spans().time("core.decode_model_ms",
                          [&] { return core::decode_model(container); });
    spans().record("core.decode.lossless_ms", d.timing.lossless_ms);
    spans().record("core.decode.sz_ms", d.timing.sz_ms);
    spans().record("core.decode.reconstruct_ms", d.timing.reconstruct_ms);
  }
  repeat("util.crc32_ms", reps * 10, [&] { return util::crc32(container); });
  spans().count("util.container_bytes", static_cast<double>(container.size()));

  // Cold store warm-up, with the Figure-7b phase split the store reports.
  for (int i = 0; i < reps; ++i) {
    serve::ModelStore store(container);
    spans().time("serve.model_store.warmup_ms", [&] {
      store.warmup();
      return 0;
    });
    const auto st = store.stats();
    spans().record("serve.model_store.lossless_ms", st.lossless_ms);
    spans().record("serve.model_store.eb_decode_ms", st.eb_decode_ms);
    spans().record("serve.model_store.reconstruct_ms", st.reconstruct_ms);
  }

  // Warm forward paths, configured as a scheduler worker configures them.
  serve::ModelStoreOptions sopts;
  sopts.build_csr = true;
  serve::ModelStore store(container, sopts);
  repeat("nn.network_build_ms", reps, [&] {
    return serve::make_fc_network(store.reader()).dense_layers().size();
  });
  auto net = serve::make_fc_network(store.reader());
  serve::InferenceSession session(store, net);
  session.enable_sparse_forward(true);
  (void)session.infer(tensor16);
  repeat("serve.session.infer_b1_ms", reps * 10,
         [&] { return session.infer(tensor1).numel(); });
  repeat("serve.session.infer_b16_ms", reps * 10,
         [&] { return session.infer(tensor16).numel(); });
  // A scheduler worker drops its layer pins whenever its queue empties, so
  // each request after an idle spell looks its layers up in the store again.
  store.reset_stats();
  for (int i = 0; i < reps * 10; ++i) {
    session.release_layers();
    (void)session.infer(tensor1);
  }
  const auto st = store.stats();
  spans().count("serve.model_store.resident_mb",
                static_cast<double>(st.cached_bytes) / (1 << 20));
  spans().count("serve.model_store.hit_rate", st.hit_rate());

  std::vector<std::shared_ptr<const serve::ServedLayer>> layers;
  for (const auto& e : store.reader().entries()) layers.push_back(store.get(e.name));
  repeat("serve.sparse_forward.b16_ms", reps * 10, [&] {
    return serve::sparse_fc_forward(layers, tensor16).numel();
  });

  // 1-row dense pass over the widest layer (fc7 on the AlexNet head).
  const auto& widest = *std::max_element(
      layers.begin(), layers.end(), [](const auto& l, const auto& r) {
        return l->dense.size() < r->dense.size();
      });
  std::vector<float> x(static_cast<std::size_t>(widest->cols), 0.5f);
  std::vector<float> y(static_cast<std::size_t>(widest->rows));
  repeat("tensor.gemm.gemv_ms", reps * 10, [&] {
    tensor::gemm_nt(1, widest->rows, widest->cols, x.data(),
                    widest->dense.data(), y.data());
    return y[0];
  });
}

/// In-process probes of the request path: Server::handle, HTTP round trip,
/// scheduler queueing and batching, repository loads.
void probe_server_layers(const std::vector<std::uint8_t>& container,
                         const Pool& p, double open_rate, int reps,
                         Results& res) {
  obs::Tracer::set_enabled(true);  // as `deepsz_tool serve` runs by default
  server::ServerOptions opts;
  opts.http.port = 0;
  server::Server srv(opts);
  repeat("server.repository.load_ms", reps, [&] {
    return srv.repository().load("probe", container)->version;
  });
  srv.repository().load("m", container);
  const auto bodies16 = make_bodies(p, kMaxBatch);
  server::HttpRequest req;
  req.method = "POST";
  req.target = "/v1/models/m:infer";
  req.headers["content-type"] = "application/octet-stream";
  req.body = bodies16[0];
  (void)srv.handle(req);  // first request decodes the layers
  repeat("server.handle_ms", reps * 20, [&] {
    auto r = srv.handle(req);
    std::lock_guard<std::mutex> lock(g_results_mu);
    res.check(r.status == 200, "in-process handle");
    return r.status;
  });
  srv.start_http();
  {
    HttpClient client(srv.http_port());
    repeat("server.http_rtt_ms", reps * 20, [&] {
      return client.request("POST", req.target, req.body).status;
    });
  }

  // Open loop of 1-row submits at the workload's rate: queue wait (the
  // linger) and batch sizes as InferResult reports them.
  const int n = std::max(50, static_cast<int>(open_rate));
  std::vector<std::future<server::InferResult>> futures;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < n; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(i * 1e9 / open_rate);
    while (now_ns() < due) std::this_thread::sleep_for(std::chrono::microseconds(50));
    server::InferRequest r;
    const auto row = p.row(i % p.rows);
    r.input.assign(row.begin(), row.end());
    futures.push_back(srv.scheduler().submit("m", std::move(r)));
  }
  for (auto& f : futures) {
    auto r = f.get();
    res.check(r.ok(), "scheduler open-loop infer");
    spans().record("server.scheduler.queue_ms", r.queue_ms);
    spans().record("server.scheduler.compute_ms", r.compute_ms);
    spans().count("server.scheduler.open_batch_rows",
                  static_cast<double>(r.batch_rows));
  }

  // Closed loop with >= 2 x max_batch rows in flight.
  const int threads = generator_threads();
  const std::int64_t rows =
      std::max<std::int64_t>(kMaxBatch, (2 * kMaxBatch + threads - 1) / threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int k = 0; k < reps * 10; ++k) {
        server::InferRequest r;
        r.rows = rows;
        const std::int64_t first = ((t + k * threads) * rows) % (p.rows - rows + 1);
        r.input.assign(p.x.begin() + first * p.in,
                       p.x.begin() + (first + rows) * p.in);
        auto out = srv.scheduler().infer("m", std::move(r));
        spans().count("server.scheduler.batch_rows",
                      static_cast<double>(out.batch_rows));
        std::lock_guard<std::mutex> lock(g_results_mu);
        res.check(out.ok(), "scheduler closed-loop infer");
      }
    });
  }
  for (auto& th : pool) th.join();
  srv.stop();
}

/// Span overhead: the same call with the span log off, then on, alternating.
void probe_overhead(const std::function<void()>& call, int reps) {
  std::vector<double> off, on;
  for (int i = 0; i < reps; ++i) {
    spans().enable(false);
    std::int64_t t0 = now_ns();
    call();
    off.push_back(ms_between(t0, now_ns()));
    spans().enable(true);
    t0 = now_ns();
    spans().time("trace.overhead_probe", [&] {
      call();
      return 0;
    });
    on.push_back(ms_between(t0, now_ns()));
  }
  spans().count("trace.overhead_pct",
                100.0 * (median(on) - median(off)) / median(off));
}

/// Codec probes on one layer (the widest the workload encodes): sz on its
/// data array at the layer's error bound, the zstd and huffman byte codecs
/// on its index stream.
void probe_codec_layers(const sparse::PrunedLayer& layer, double eb, int reps) {
  sz::SzParams params;
  params.error_bound = eb;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < reps; ++i) {
    stream = spans().time("sz.compress_ms",
                          [&] { return sz::compress(layer.data, params); });
    (void)spans().time("sz.decompress_ms",
                       [&] { return sz::decompress(stream); });
  }
  for (const char* name : {"zstd", "huffman"}) {
    auto codec = codec::CodecRegistry::instance().make_byte(name);
    const std::string prefix = std::string("lossless.") + name;
    std::vector<std::uint8_t> frame;
    // One zstd round: its encode of AlexNet fc7's index stream takes ~5 s.
    const int n = std::string(name) == "zstd" ? 1 : reps;
    for (int i = 0; i < n; ++i) {
      frame = spans().time(prefix + ".compress_ms",
                           [&] { return codec->encode(layer.index); });
      (void)spans().time(prefix + ".decompress_ms",
                         [&] { return codec->decode(frame); });
    }
  }
}

/// What one workload's traced run feeds the layer probes: the container it
/// serves and a rollout target of it, the layers its write side encodes,
/// and the call whose span overhead it reports. The DeepSZ pipeline probes
/// always run on LeNet-300, the one model with a data set.
struct ProbeInputs {
  std::vector<std::uint8_t> served;
  std::vector<std::uint8_t> target;
  std::string base_id;
  const Pool* pool = nullptr;
  double open_rate = 0;
  int serving_reps = 1;
  int server_reps = 1;
  std::vector<sparse::PrunedLayer> encoded;
  std::map<std::string, double> ebs;
  std::function<void()> overhead_call;
  int overhead_reps = 1;
};

/// The DeepSZ pipeline's layers (compress, nn) on LeNet-300.
void probe_compress_layers(const modelzoo::TrainedModel& m,
                           const std::vector<sparse::PrunedLayer>& originals,
                           Results& res) {
  auto net = lenet_pruned_copy();
  double s = 0, cpu = 0;
  auto report = run_pipeline(net, m, &s, &cpu);
  check_pipeline_container(report, originals, res);
  const auto stage_ms = [&](compress::Stage st) {
    return report.stages[static_cast<int>(st)].seconds * 1e3;
  };
  spans().record("compress.assess_s", stage_ms(compress::Stage::kAssess));
  spans().record("compress.optimize_s", stage_ms(compress::Stage::kOptimize));
  spans().record("compress.encode_s", stage_ms(compress::Stage::kEncode));
  std::size_t tested = 0;
  for (const auto& as : report.assessments) tested += as.points.size();
  spans().count("compress.tested_bounds", static_cast<double>(tested));
  auto fresh = modelzoo::make_by_key("lenet300");
  core::load_compressed_model(report.model.bytes, fresh);
  repeat("nn.evaluate_ms", 5, [&] {
    return nn::evaluate(fresh, m.test.images, m.test.labels).top1;
  });
}

/// One round of every layer probe on a workload's inputs, so each traced
/// run reports every per-layer metric.
void probe_all_layers(const ProbeInputs& in, const modelzoo::TrainedModel& m,
                      const std::vector<sparse::PrunedLayer>& lenet_layers,
                      Results& res) {
  const auto delta = spans().time("core.encode_delta_s", [&] {
    return encode_rollout_delta(in.served, in.target, in.base_id);
  });
  probe_serving_layers(in.served, *in.pool, in.serving_reps);
  probe_server_layers(in.served, *in.pool, in.open_rate, in.server_reps, res);
  {
    server::ModelRepository repo;
    repo.load("base", in.served);
    repo.get("base")->store->warmup();
    for (int i = 0; i < 3; ++i) {
      bool good = false;
      try {
        spans().time("server.repository.delta_load_ms", [&] {
          return repo.load("next", delta, "", "base")->version;
        });
        good = true;
      } catch (const std::exception&) {
      }
      res.check(good, "delta load onto the served container");
    }
  }
  const auto& widest = *std::max_element(
      in.encoded.begin(), in.encoded.end(),
      [](const auto& l, const auto& r) { return l.data.size() < r.data.size(); });
  probe_codec_layers(widest, in.ebs.at(widest.name), 3);
  auto enc = spans().time("core.encode_model_s",
                          [&] { return core::encode_model(in.encoded, in.ebs); });
  std::size_t data_bytes = 0, index_bytes = 0;
  for (const auto& st : enc.stats) {
    data_bytes += st.data_bytes;
    index_bytes += st.index_bytes;
  }
  spans().count("core.data_bytes", static_cast<double>(data_bytes));
  spans().count("core.index_bytes", static_cast<double>(index_bytes));
  std::string why;
  res.check(container_within_bounds(enc.bytes, in.encoded, in.ebs, &why),
            "encoded container: " + why);
  probe_compress_layers(m, lenet_layers, res);
  probe_overhead(in.overhead_call, in.overhead_reps);
}

/// The traced run: layer probes on `in` until `seconds` have passed.
void traced_run(const Args& a, const ProbeInputs& in, Results& res) {
  const auto m = modelzoo::pretrained("lenet300");
  auto lenet = lenet_pruned_copy();
  const auto lenet_layers = core::extract_pruned_layers(lenet);
  for_seconds(a.seconds, [&] { probe_all_layers(in, m, lenet_layers, res); });
}

// ------------------------------------------------------------ workloads

void lenet_serve(const Args& a, Results& res) {
  const std::string path = cache_path(a, "lenet300.dszc");
  const auto container = perfbench::read_file(path);
  Pool p = make_pool(256, 784, a.seed);
  add_reference(p, "v1", container);

  if (a.trace) {
    auto lenet = lenet_pruned_copy();
    ProbeInputs in;
    in.served = container;
    in.ebs = container_ebs(container);
    in.encoded = core::extract_pruned_layers(lenet);
    in.target = core::encode_model(rollout_target(in.encoded), in.ebs).bytes;
    in.base_id = "lenet300.dszc";
    in.pool = &p;
    in.open_rate = kLenetRate;
    in.serving_reps = 5;
    in.server_reps = 5;
    server::Server srv;
    srv.repository().load("m", container);
    server::HttpRequest req;
    req.method = "POST";
    req.target = "/v1/models/m:infer";
    req.headers["content-type"] = "application/octet-stream";
    req.body = make_bodies(p, kMaxBatch)[0];
    in.overhead_call = [&] { (void)srv.handle(req); };
    in.overhead_reps = 200;
    traced_run(a, in, res);
    return;
  }

  // The loops run against kLenetDaemons daemons in turn, each a fresh
  // process; the metrics are medians over them.
  auto daemon = setup_daemon(a, "lenet", path, p, "v1", kLenetSetupReps, res);
  const double share = a.seconds / kLenetDaemons;
  const int n = std::max(kMinOpenLoopSamples,
                         static_cast<int>(kLenetRate * a.seconds * 0.6)) /
                kLenetDaemons;
  for (int d = 0; d < kLenetDaemons; ++d) {
    if (!daemon) daemon = start_daemon(a, "lenet", path, p, "v1", res);
    closed_loop(*daemon, "lenet", p, "v1", kWarmupSeconds, share * 0.4, res);
    open_loop(*daemon, "lenet", p, "v1", kLenetRate, n, res);
    stop_daemon(daemon, res);
  }
  res.values["size_ratio"] = container_ratio(container);
}

void alexnet_rollout(const Args& a, Results& res) {
  const std::string base_path = cache_path(a, "alexnet_head.dszc");
  const auto base = perfbench::read_file(base_path);
  const auto target = perfbench::read_file(cache_path(a, "alexnet_head_target.dszc"));
  Pool p = make_pool(64, 4096, a.seed);
  add_reference(p, "base", base);
  add_reference(p, "target", target);

  if (a.trace) {
    ProbeInputs in;
    in.served = base;
    in.target = target;
    in.base_id = "alexnet_head.dszc";
    in.pool = &p;
    in.open_rate = kAlexnetRate;
    in.serving_reps = 3;
    in.server_reps = 2;
    in.encoded = alexnet_head();
    in.ebs = paper_ebs("alexnet");
    serve::ModelStore store(base);
    auto net = serve::make_fc_network(store.reader());
    serve::InferenceSession session(store, net);
    const auto x = tensor::Tensor::from({1, p.in}, {p.x.begin(), p.x.begin() + p.in});
    in.overhead_call = [&] { (void)session.infer(x); };
    in.overhead_reps = 40;
    traced_run(a, in, res);
    return;
  }

  const auto delta = perfbench::read_file(cache_path(a, "alexnet_head_delta.dszc"));
  auto daemon = setup_daemon(a, "head", base_path, p, "base", kAlexnetSetupReps, res);
  HttpClient client(daemon->port());
  // Lifecycle: a cold full-container load, then a delta hot-swap onto it,
  // each timed to the first infer answered by the new version.
  const std::int64_t lifecycle_end =
      now_ns() + static_cast<std::int64_t>(a.seconds * 0.35 * 1e9);
  for (int it = 0; it < 3 || now_ns() < lifecycle_end; ++it) {
    std::string why;
    std::int64_t t0 = now_ns();
    auto cpu0 = daemon->thread_cpu();
    auto r = client.request("POST", "/v1/models/head:load", base);
    bool good = r.status == 200 && infer_once(client, "head", p, "base", it % p.rows, &why);
    const double cold_cpu_ms = perfbench::cpu_between(cpu0, daemon->thread_cpu()) * 1e3;
    res.samples["cold_load_ms"].push_back(ms_between(t0, now_ns()));
    res.samples["cold_load_cpu_ms"].push_back(cold_cpu_ms);
    res.check(good, "cold load: status " + std::to_string(r.status) + " " + why);

    t0 = now_ns();
    cpu0 = daemon->thread_cpu();
    r = client.request("POST", "/v1/models/head:load?base=head", delta);
    good = r.status == 200 && infer_once(client, "head", p, "target", it % p.rows, &why);
    const double swap_cpu_ms = perfbench::cpu_between(cpu0, daemon->thread_cpu()) * 1e3;
    res.samples["swap_ms"].push_back(ms_between(t0, now_ns()));
    res.samples["swap_cpu_ms"].push_back(swap_cpu_ms);
    res.samples["lifecycle_cpu_ms"].push_back(cold_cpu_ms + swap_cpu_ms);
    res.check(good, "delta swap: status " + std::to_string(r.status) + " " + why);
  }
  // The closed loop's warm-up also reaches the worker the lifecycle's single
  // infers did not, so neither loop times that worker's network build.
  closed_loop(*daemon, "head", p, "target", kWarmupSeconds, a.seconds * 0.2,
              res);
  const int n = std::max(kMinOpenLoopSamples,
                         static_cast<int>(kAlexnetRate * a.seconds * 0.4));
  open_loop(*daemon, "head", p, "target", kAlexnetRate, n, res);
  stop_daemon(daemon, res);
  res.values["size_ratio"] = container_ratio(base);

  // The delta chain decodes bit-identically to a direct load of the target.
  core::ContainerReader direct(target);
  core::ContainerReader chained(delta);
  chained.set_base(std::make_shared<core::ContainerReader>(base));
  for (std::size_t i = 0; i < direct.num_layers(); ++i) {
    const auto want = direct.decode_layer(i);
    const auto got = chained.decode_layer(i);
    res.check(crc_of(got.data) == crc_of(want.data) &&
                  util::crc32(got.index) == util::crc32(want.index),
              "delta layer " + want.name + " differs from direct load");
  }
  std::string why;
  const auto ebs = paper_ebs("alexnet");
  res.check(container_within_bounds(base, alexnet_head(), ebs, &why),
            "base container: " + why);
  res.check(container_within_bounds(target, rollout_target(alexnet_head()),
                                    ebs, &why),
            "target container: " + why);
}

void deepsz_compress(const Args& a, Results& res) {
  modelzoo::TrainedModel m;
  std::vector<sparse::PrunedLayer> head;
  for (int rep = 0; rep < kCompressSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    m = modelzoo::pretrained("lenet300");
    head = alexnet_head();
    (void)lenet_pruned_copy();
    res.samples["setup_s"].push_back(ms_between(t0, now_ns()) / 1e3);
  }
  const auto head_ebs = paper_ebs("alexnet");
  auto original_net = lenet_pruned_copy();
  const auto originals = core::extract_pruned_layers(original_net);

  if (a.trace) {
    // Serves the LeNet-300 container the pipeline writes; encodes the head.
    const auto served = perfbench::read_file(cache_path(a, "lenet300.dszc"));
    Pool p = make_pool(256, 784, a.seed);
    ProbeInputs in;
    in.served = served;
    in.target = core::encode_model(rollout_target(originals),
                                   container_ebs(served)).bytes;
    in.base_id = "lenet300.dszc";
    in.pool = &p;
    in.open_rate = kLenetRate;
    in.serving_reps = 2;
    in.server_reps = 2;
    in.encoded = head;
    in.ebs = head_ebs;
    const auto& fc7 = head.front();
    sz::SzParams params;
    params.error_bound = head_ebs.at(fc7.name);
    in.overhead_call = [&] { (void)sz::compress(fc7.data, params); };
    in.overhead_reps = 20;
    traced_run(a, in, res);
    return;
  }

  // Timed phase 1: the DeepSZ pipeline on LeNet-300 (Figure 7a).
  const std::int64_t pipeline_end =
      now_ns() + static_cast<std::int64_t>(a.seconds * 0.15 * 1e9);
  compress::CompressReport last;
  for (int i = 0; i < 3 || now_ns() < pipeline_end; ++i) {
    auto net = lenet_pruned_copy();
    double s = 0;
    try {
      double cpu = 0;
      last = run_pipeline(net, m, &s, &cpu);
      res.samples["compress_s"].push_back(s);
      res.samples["compress_cpu_ms"].push_back(cpu * 1e3);
      check_pipeline_container(last, originals, res);
    } catch (const std::exception& e) {
      res.fail(std::string("pipeline: ") + e.what());
    }
  }
  res.values["size_ratio"] = last.compression_ratio;
  {
    // Top-1 recomputed from the emitted container, not from the report.
    auto fresh = modelzoo::make_by_key("lenet300");
    core::load_compressed_model(last.model.bytes, fresh);
    const double top1 = nn::evaluate(fresh, m.test.images, m.test.labels).top1;
    res.values["top1_original"] = m.base.top1;
    res.values["top1_decoded"] = top1;
    res.values["top1_drop_pct"] = (m.base.top1 - top1) * 100.0;
    res.check(std::fabs(top1 - last.acc_decoded.top1) < 1e-9,
              "recomputed top-1 disagrees with the session's");
  }

  // Timed phase 2: encode_model of the AlexNet head, default options.
  const std::int64_t encode_end =
      now_ns() + static_cast<std::int64_t>(a.seconds * 0.85 * 1e9);
  for (int i = 0; i < 2 || now_ns() < encode_end; ++i) {
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_seconds();
    auto enc = core::encode_model(head, head_ebs);
    res.samples["encode_s"].push_back(ms_between(t0, now_ns()) / 1e3);
    res.samples["encode_cpu_ms"].push_back((process_cpu_seconds() - cpu0) * 1e3);
    res.values["encode_ratio"] = enc.compression_ratio();
    std::string why;
    res.check(container_within_bounds(enc.bytes, head, head_ebs, &why),
              "head container: " + why);
  }
  res.values["peak_rss_mb"] = perfbench::self_peak_rss_mb();
}

// ------------------------------------------------------------ main

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--cache") a.cache = v;
    else if (k == "--tool") a.tool = v;
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.cache.empty()) throw std::invalid_argument("--cache is required");
  return a;
}

Json to_json(const Args& a, const Results& res) {
  Json samples, values, open, counts, durations;
  for (const auto& [k, v] : res.samples) samples.arr(k, v);
  for (const auto& [k, v] : res.values) values.num(k, v);
  for (const auto& [k, v] : res.open_loop) open.arr(k, v);
  for (const auto& [k, v] : spans().durations()) durations.arr(k, v);
  for (const auto& [k, v] : spans().counts()) counts.arr(k, v);
  std::string failures;
  for (const auto& f : res.failures) failures += f + "\n";
  const char* threads = std::getenv("DEEPSZ_THREADS");
  Json env;
  env.str("compiler", kCompiler)
      .num("avx2", util::have_avx2_fma() ? 1 : 0)
      .str("deepsz_threads", threads ? threads : "")
      .num("nproc", std::thread::hardware_concurrency());
  Json out;
  out.str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .num("trace", a.trace ? 1 : 0)
      .num("attempted", static_cast<double>(res.attempted))
      .num("failed", static_cast<double>(res.failed))
      .str("failures", failures)
      .obj("env", env)
      .obj("samples", samples)
      .obj("values", values)
      .obj("open_loop", open)
      .obj("spans_ms", durations)
      .obj("counts", counts);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench prepare|run --cache DIR ...\n");
    return 2;
  }
  try {
    const Args a = parse(argc, argv);
    std::filesystem::create_directories(a.cache + "/zoo");
    ::setenv("DEEPSZ_CACHE", (a.cache + "/zoo").c_str(), 1);
    const std::string cmd = argv[1];
    if (cmd == "prepare") return prepare(a);
    if (cmd != "run") throw std::invalid_argument("unknown command " + cmd);

    Results res;
    spans().enable(a.trace);
    if (a.workload == "lenet-serve") lenet_serve(a, res);
    else if (a.workload == "alexnet-rollout") alexnet_rollout(a, res);
    else if (a.workload == "deepsz-compress") deepsz_compress(a, res);
    else throw std::invalid_argument("unknown workload " + a.workload);
    spans().enable(false);
    perfbench::write_text(a.out, to_json(a, res).dump());
    if (a.trace) perfbench::write_text(a.out + ".trace.json", spans().chrome_json());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
