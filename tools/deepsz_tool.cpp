// deepsz_tool — command-line front end for the compression stack.
//
// Codecs AND compressor strategies are resolved by registry spec (`name` or
// `name:key=value,...`), so every registered backend is reachable without
// new flags:
//
//   deepsz_tool codecs
//   deepsz_tool compress      <model> <out.dszc> [--strategy <spec>] ...
//   deepsz_tool compare       <model> [strategy-spec...]
//   deepsz_tool sz-compress   <in.f32> <out> [eb] [float-codec-spec]
//   deepsz_tool sz-decompress <in.sz>  <out.f32>
//   deepsz_tool sz-info       <in.sz>
//   deepsz_tool zfp-compress  <in.f32> <out.zfp> [tolerance]
//   deepsz_tool zfp-decompress <in.zfp> <out.f32>
//   deepsz_tool pack          <in> <out> [byte-codec-spec]
//   deepsz_tool unpack        <in> <out>
//   deepsz_tool model-info    <model.dszc>
//   deepsz_tool diff          <base.dszc> <new.dszc> <out.dszc> ...
//   deepsz_tool inspect       <model.dszc>
//   deepsz_tool serve-bench   <model.dszc> [requests] [batch] [cache-mb]
//   deepsz_tool serve         --model name=path ... [--port N] ...
//   deepsz_tool trace         <model.dszc> <out.json> [requests] [rows]
//
// Raw float files are little-endian fp32 with no header. Every subcommand
// answers `--help` with its own usage on stdout and exit 0.
//
// Exit codes: 0 success, 1 runtime failure (I/O, corrupt stream, a compare
// row failing its serving check), 2 bad usage, 3 unknown codec or strategy
// name, 4 bad codec options or argument value.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec/registry.h"
#include "compress/compare.h"
#include "compress/finetune.h"
#include "compress/registry.h"
#include "compress/session.h"
#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/synthetic_mnist.h"
#include "modelzoo/pretrained.h"
#include "modelzoo/zoo.h"
#include "nn/init.h"
#include "nn/sgd.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "server/server.h"
#include "sz/sz.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitUnknownCodec = 3;
constexpr int kExitBadOptions = 4;

// One file-reading routine for the whole stack (it carries the size checks).
using deepsz::server::read_file_bytes;
constexpr auto read_file = read_file_bytes;

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

std::vector<float> as_floats(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() % sizeof(float) != 0) {
    throw std::invalid_argument("input size is not a multiple of 4 bytes");
  }
  std::vector<float> out(bytes.size() / sizeof(float));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

std::vector<std::uint8_t> as_bytes(const std::vector<float>& floats) {
  std::vector<std::uint8_t> out(floats.size() * sizeof(float));
  std::memcpy(out.data(), floats.data(), out.size());
  return out;
}

double parse_double(const char* arg, const char* what) {
  try {
    std::size_t used = 0;
    double v = std::stod(arg, &used);
    if (used != std::strlen(arg)) throw std::invalid_argument(arg);
    return v;
  } catch (const std::exception&) {
    throw deepsz::codec::BadOptions(std::string(what) + ": \"" + arg +
                                    "\" is not a number");
  }
}

/// One row per subcommand: the single source of both `--help` outputs and
/// the tool_cli test's subcommand inventory (the test parses print_usage).
struct Subcommand {
  const char* name;
  const char* args;     // usage after the name
  const char* summary;  // one line
};

constexpr Subcommand kSubcommands[] = {
    {"codecs", "", "list registered codecs and compressor strategies"},
    {"compress", "<model> <out.dszc> [--strategy <spec>] [--keep <ratio>]",
     "compress a zoo model (tiny|lenet300|lenet5)"},
    {"compare", "<model> [strategy-spec...]",
     "ratio/accuracy/timing table (default: every strategy)"},
    {"train",
     "<model> [steps=200] [--seed N] [--ckpt-dir D] [--every K]\n"
     "        [--codec <float-spec>] [--eb X] [--resume <ckpt.dszk>]",
     "deterministic SGD training with error-bounded checkpoints"},
    {"finetune",
     "<model> <out.dszc> [steps=200] [--seed N] [--keep <ratio>]\n"
     "        [--ckpt-dir D] [--every K] [--codec <float-spec>] [--eb X]\n"
     "        [--resume <ckpt.dszk>] [--strategy <spec>]",
     "prune + fine-tune with lossy checkpoints, then encode a servable "
     "container"},
    {"sz-compress", "<in.f32> <out> [eb=1e-3] [codec=sz]",
     "error-bounded compression of a raw fp32 file"},
    {"sz-decompress", "<in.sz> <out.f32>", "restore a raw fp32 file"},
    {"sz-info", "<in.sz>", "inspect an SZ stream header"},
    {"zfp-compress", "<in.f32> <out.zfp> [tolerance=1e-3]",
     "zfp-compress a raw fp32 file"},
    {"zfp-decompress", "<in.zfp> <out.f32>", "restore from a zfp stream"},
    {"pack", "<in> <out> [codec=zstd]", "lossless-pack any file"},
    {"unpack", "<in> <out>", "restore a packed file"},
    {"model-info", "<model.dszc>", "inspect a compressed model container"},
    {"diff",
     "<base.dszc> <new.dszc> <out.dszc> [--residual-codec <spec>]\n"
     "        [--lossless <spec>] [--eb X] [--base-id <id>]",
     "emit a delta container shipping only the layers that changed"},
    {"inspect", "<model.dszc>",
     "per-layer record kinds and the delta base chain"},
    {"serve-bench",
     "<model.dszc> [requests=64] [batch=8] [cache-mb=64] [--native]",
     "cold/warm serving latency + cache counters (per serving form)"},
    {"serve",
     "--model name=path [--model name=path ...] [--port 8080]\n"
     "        [--cache-bytes B | --cache-mb 256] [--max-batch 16]\n"
     "        [--max-delay-us 2000] [--queue-cap 256] [--workers 2]\n"
     "        [--trace-file out.json] [--no-trace]",
     "multi-model HTTP serving daemon (POST /v1/models/<name>:infer)"},
    {"trace", "<model.dszc> <out.json> [requests=4] [rows=2]",
     "replay a container load + inference and write a Perfetto trace"},
};

void print_exit_codes(std::FILE* to) {
  std::fprintf(
      to,
      "exit codes:\n"
      "  0  success\n"
      "  1  runtime failure (I/O, corrupt stream, failed serving check)\n"
      "  2  bad usage\n"
      "  3  unknown codec or strategy name\n"
      "  4  bad codec/strategy options or argument value\n");
}

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: deepsz_tool <command> <args>\n"
               "commands (each answers `deepsz_tool <command> --help`):\n");
  for (const auto& sub : kSubcommands) {
    std::fprintf(to, "  %-14s %s\n", sub.name, sub.summary);
  }
  std::fprintf(
      to,
      "codec and strategy specs are registry names with options, e.g.\n"
      "\"zstd\", \"sz:quant_bins=1024,backend=gzip\",\n"
      "\"deepsz:expected_acc=0.004\" or \"deep-compression:bits=5\";\n"
      "run `deepsz_tool codecs` for the full list of both.\n");
  print_exit_codes(to);
}

int usage() {
  print_usage(stderr);
  return kExitUsage;
}

/// `deepsz_tool <cmd> --help` (any position): subcommand usage on stdout,
/// exit 0. Returns true when handled.
bool subcommand_help(const std::string& cmd, int argc, char** argv) {
  bool wants_help = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      wants_help = true;
      break;
    }
  }
  if (!wants_help) return false;
  for (const auto& sub : kSubcommands) {
    if (cmd == sub.name) {
      std::printf("usage: deepsz_tool %s %s\n%s\n", sub.name, sub.args,
                  sub.summary);
      print_exit_codes(stdout);
      return true;
    }
  }
  return false;  // unknown subcommand: fall through to the usage error
}

/// A zoo model plus data, ready for the compression pipeline. "tiny" builds
/// and briefly trains the 784-32-10 MLP in-process (no cache, < 1 s); the
/// zoo keys load the train-once cached networks.
struct ToolModel {
  deepsz::nn::Network net;
  deepsz::data::Dataset train;
  deepsz::data::Dataset test;
  std::map<std::string, double> keep_ratio;
};

ToolModel load_tool_model(const std::string& key) {
  using namespace deepsz;
  ToolModel m;
  if (key == "tiny") {
    m.net = modelzoo::make_tiny_fc();
    nn::he_initialize(m.net, 0x717e);
    m.train = data::synthetic_mnist(512, 0x7a11);
    m.test = data::synthetic_mnist(256, 0xbe22);
    nn::Sgd sgd(nn::SgdConfig{.lr = 0.05, .momentum = 0.9,
                              .weight_decay = 0.0, .batch_size = 64});
    util::Pcg32 rng(0x90d5);
    for (int e = 0; e < 3; ++e) {
      sgd.train_epoch(m.net, m.train.images, m.train.labels, rng);
    }
    m.keep_ratio = {{"fc1", 0.10}, {"fc2", 0.30}};
    return m;
  }
  if (key == "lenet300") {
    auto t = modelzoo::pretrained(key);
    m.net = std::move(t.net);
    m.train = std::move(t.train);
    m.test = std::move(t.test);
    m.keep_ratio = {{"ip1", 0.08}, {"ip2", 0.09}, {"ip3", 0.26}};
    return m;
  }
  if (key == "lenet5") {
    auto t = modelzoo::pretrained(key);
    m.net = std::move(t.net);
    m.train = std::move(t.train);
    m.test = std::move(t.test);
    m.keep_ratio = {{"ip1", 0.08}, {"ip2", 0.19}};
    return m;
  }
  throw std::invalid_argument("unknown model \"" + key +
                              "\" (expected tiny|lenet300|lenet5)");
}

const char* kind_name(deepsz::core::LayerKind kind) {
  switch (kind) {
    case deepsz::core::LayerKind::kFull: return "full";
    case deepsz::core::LayerKind::kSame: return "same";
    case deepsz::core::LayerKind::kDelta: return "delta";
  }
  return "?";
}

const char* mask_name(deepsz::core::MaskMode mode) {
  switch (mode) {
    case deepsz::core::MaskMode::kSameAsBase: return "same-as-base";
    case deepsz::core::MaskMode::kXorDelta: return "xor-delta";
    case deepsz::core::MaskMode::kFullIndex: return "full-index";
  }
  return "?";
}

bool file_exists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Resolves a base_id the way the server's cold fallback does: as given,
/// then relative to the referring container's directory.
std::string resolve_base_path(const std::string& referrer,
                              const std::string& base_id) {
  if (file_exists(base_id)) return base_id;
  const std::string dir = dir_of(referrer);
  return dir.empty() ? base_id : dir + "/" + base_id;
}

/// A container file plus its resolved base chain, every hop's bytes kept
/// alive for the readers that view them.
struct OpenedContainer {
  std::string path;
  std::vector<std::uint8_t> bytes;
  std::unique_ptr<deepsz::core::ContainerReader> reader;
  std::shared_ptr<OpenedContainer> base;
};

std::shared_ptr<OpenedContainer> open_container_chain(
    const std::string& path, std::set<std::uint32_t>& visited, int depth) {
  if (depth <= 0) {
    throw std::runtime_error(path + ": base chain deeper than " +
                             std::to_string(
                                 deepsz::core::ContainerReader::
                                     kMaxChainDepth));
  }
  auto oc = std::make_shared<OpenedContainer>();
  oc->path = path;
  oc->bytes = read_file(path);
  oc->reader = std::make_unique<deepsz::core::ContainerReader>(oc->bytes);
  if (!visited.insert(oc->reader->container_crc()).second) {
    throw std::runtime_error(path + ": base chain cycle");
  }
  if (oc->reader->is_delta()) {
    oc->base = open_container_chain(
        resolve_base_path(path, oc->reader->base_id()), visited, depth - 1);
    oc->reader->set_base(std::shared_ptr<const deepsz::core::ContainerReader>(
        oc->base, oc->base->reader.get()));
  }
  return oc;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void on_serve_signal(int) { g_serve_stop = 1; }

int run_serve(int argc, char** argv);
int run_trace(int argc, char** argv);

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  auto& registry = deepsz::codec::CodecRegistry::instance();
  deepsz::util::WallTimer timer;

  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_usage(stdout);
    return kExitOk;
  }
  if (subcommand_help(cmd, argc, argv)) return kExitOk;
  if (cmd == "serve") return run_serve(argc, argv);
  if (cmd == "trace") return run_trace(argc, argv);
  if (cmd == "codecs" && argc == 2) {
    // One row per codec with its full registry metadata — the docs'
    // codec/version tables are generated from this output, so it is the
    // single source of truth for stream-version support and the bounded
    // flag (see docs/container_format.md).
    std::printf("%-10s %-8s %-7s %-14s %s\n", "codec", "kind", "bounded",
                "streams", "summary / options");
    for (const auto& info : registry.list()) {
      std::printf("%-10s %-8s %-7s %-14s %s\n", info.name.c_str(),
                  !info.error_bounded ? "lossless" : "lossy",
                  !info.error_bounded ? "-"
                  : info.bounded      ? "yes"
                                      : "no",
                  info.stream_versions.empty() ? "-"
                                               : info.stream_versions.c_str(),
                  info.summary.c_str());
      if (!info.options_help.empty()) {
        std::printf("%-10s %-8s %-7s %-14s   options: %s\n", "", "", "", "",
                    info.options_help.c_str());
      }
    }
    std::printf("\n%-18s %-6s %-13s %s\n", "strategy", "kind", "serves-as",
                "summary / options");
    for (const auto& info :
         deepsz::compress::CompressorRegistry::instance().list()) {
      std::printf("%-18s %-6s %-13s %s\n", info.name.c_str(),
                  info.error_bounded ? "eb" : "fixed",
                  deepsz::serve::serving_form_name(info.native_form),
                  info.summary.c_str());
      if (!info.options_help.empty()) {
        std::printf("%-18s %-6s %-13s   options: %s\n", "", "", "",
                    info.options_help.c_str());
      }
    }
    return kExitOk;
  }
  if (cmd == "compress" && argc >= 4) {
    std::string strategy = "deepsz";
    double keep_override = 0.0;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--strategy" && i + 1 < argc) {
        strategy = argv[++i];
      } else if (arg == "--keep" && i + 1 < argc) {
        keep_override = parse_double(argv[++i], "keep ratio");
        if (!(keep_override > 0.0 && keep_override <= 1.0)) {
          throw deepsz::codec::BadOptions("--keep must be in (0, 1]");
        }
      } else {
        return usage();
      }
    }
    auto m = load_tool_model(argv[2]);
    deepsz::compress::CompressSpec spec;
    spec.prune.keep_ratio = m.keep_ratio;
    if (keep_override > 0.0) {
      for (auto& [name, ratio] : spec.prune.keep_ratio) ratio = keep_override;
    }
    spec.prune.retrain_epochs = 1;
    deepsz::compress::CompressionSession session(
        deepsz::compress::CompressorRegistry::instance().make(strategy),
        m.net, m.train.images, m.train.labels, m.test.images, m.test.labels,
        spec);
    session.set_progress([](deepsz::compress::Stage stage,
                            const std::string& msg) {
      std::fprintf(stderr, "[%s] %s\n",
                   deepsz::compress::stage_name(stage), msg.c_str());
    });
    auto report = session.run();
    write_file(argv[3], report.model.bytes);
    std::printf("%s: %zu fc-layer(s), %zu -> %zu bytes (%.1fx), top-1 "
                "%.4f -> %.4f, encode %.2f s\n",
                report.strategy.c_str(), report.model.stats.size(),
                report.dense_fc_bytes,
                report.model.compressed_payload_bytes(),
                report.compression_ratio, report.acc_original.top1,
                report.acc_decoded.top1, report.encode_seconds);
    return kExitOk;
  }
  if (cmd == "compare" && argc >= 3) {
    auto m = load_tool_model(argv[2]);
    deepsz::compress::CompareOptions copts;
    for (int i = 3; i < argc; ++i) copts.specs.push_back(argv[i]);
    copts.spec.prune.keep_ratio = m.keep_ratio;
    copts.spec.prune.retrain_epochs = 1;
    auto rows = deepsz::compress::compare_strategies(
        m.net, m.train.images, m.train.labels, m.test.images, m.test.labels,
        copts);

    std::printf("%-24s %-12s %-8s %-9s %-9s %-10s %-10s %s\n", "strategy",
                "payload", "ratio", "top1-pre", "top1-post", "encode(s)",
                "decode(ms)", "serve");
    bool all_ok = true;
    for (const auto& row : rows) {
      if (!row.error.empty()) {
        std::printf("%-24s FAILED: %s\n", row.spec.c_str(),
                    row.error.c_str());
        all_ok = false;
        continue;
      }
      std::printf("%-24s %-12zu %-8.1f %-9.4f %-9.4f %-10.2f %-10.2f %s\n",
                  row.spec.c_str(), row.payload_bytes, row.ratio,
                  row.top1_pruned, row.top1_decoded, row.encode_seconds,
                  row.decode_ms, row.serve_ok ? "warm-ok" : "WARM-MISS");
      all_ok = all_ok && row.serve_ok;
    }
    std::printf("compared %zu strategies\n", rows.size());
    return all_ok ? kExitOk : kExitRuntime;
  }
  if (cmd == "train" && argc >= 3) {
    std::int64_t steps = 200;
    bool have_steps = false;
    deepsz::train::TrainerConfig tcfg;
    deepsz::train::CheckpointConfig ccfg;
    std::string resume;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument("train: " + arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--seed") {
        tcfg.seed = static_cast<std::uint64_t>(parse_double(next(), "seed"));
      } else if (arg == "--ckpt-dir") {
        ccfg.dir = next();
      } else if (arg == "--every") {
        const double every = parse_double(next(), "every");
        if (!(every >= 1 && every <= 1e9)) {
          throw deepsz::codec::BadOptions("--every must be in [1, 1e9]");
        }
        ccfg.every = static_cast<std::int64_t>(every);
      } else if (arg == "--codec") {
        ccfg.data_codec = next();
      } else if (arg == "--eb") {
        ccfg.default_eb = parse_double(next(), "error bound");
        ccfg.assess_bounds = false;  // explicit bound replaces the policy
      } else if (arg == "--resume") {
        resume = next();
      } else if (!have_steps && !arg.empty() && arg[0] != '-') {
        const double steps_d = parse_double(arg.c_str(), "steps");
        if (!(steps_d >= 0 && steps_d <= 1e9)) {
          throw deepsz::codec::BadOptions("steps must be in [0, 1e9]");
        }
        steps = static_cast<std::int64_t>(steps_d);
        have_steps = true;
      } else {
        return usage();
      }
    }
    auto m = load_tool_model(argv[2]);
    deepsz::train::Trainer trainer(m.net, m.train.images, m.train.labels,
                                   m.test.images, m.test.labels, tcfg);
    if (!resume.empty()) {
      trainer.restore(deepsz::train::read_checkpoint_file(resume));
      std::printf("resumed %s at step %lld (seed %llu)\n", argv[2],
                  static_cast<long long>(trainer.step_count()),
                  static_cast<unsigned long long>(trainer.seed()));
    }
    auto acc0 = trainer.evaluate();
    deepsz::train::CheckpointManager manager(ccfg);
    const auto start_step = trainer.step_count();
    double loss = trainer.run_to(steps, &manager);
    if (trainer.step_count() > start_step) manager.write(trainer);
    auto acc1 = trainer.evaluate();
    std::printf("trained %s: step %lld -> %lld, loss %.4f, top-1 %.4f -> "
                "%.4f in %.1f s\n",
                argv[2], static_cast<long long>(start_step),
                static_cast<long long>(trainer.step_count()), loss, acc0.top1,
                acc1.top1, timer.millis() / 1000.0);
    for (const auto& path : manager.written()) {
      std::printf("  checkpoint %s\n", path.c_str());
    }
    for (const auto& [layer, eb] : manager.bounds()) {
      std::printf("  bound %-8s %g\n", layer.c_str(), eb);
    }
    return kExitOk;
  }
  if (cmd == "finetune" && argc >= 4) {
    deepsz::compress::FinetuneSpec fspec;
    double keep_override = 0.0;
    bool have_steps = false;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument("finetune: " + arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--seed") {
        fspec.trainer.seed =
            static_cast<std::uint64_t>(parse_double(next(), "seed"));
      } else if (arg == "--keep") {
        keep_override = parse_double(next(), "keep ratio");
        if (!(keep_override > 0.0 && keep_override <= 1.0)) {
          throw deepsz::codec::BadOptions("--keep must be in (0, 1]");
        }
      } else if (arg == "--ckpt-dir") {
        fspec.checkpoint.dir = next();
      } else if (arg == "--every") {
        const double every = parse_double(next(), "every");
        if (!(every >= 1 && every <= 1e9)) {
          throw deepsz::codec::BadOptions("--every must be in [1, 1e9]");
        }
        fspec.checkpoint.every = static_cast<std::int64_t>(every);
      } else if (arg == "--codec") {
        fspec.checkpoint.data_codec = next();
      } else if (arg == "--eb") {
        fspec.checkpoint.default_eb = parse_double(next(), "error bound");
        fspec.checkpoint.assess_bounds = false;
      } else if (arg == "--resume") {
        fspec.resume_from = next();
      } else if (arg == "--strategy") {
        fspec.strategy = next();
      } else if (!have_steps && !arg.empty() && arg[0] != '-') {
        const double steps_d = parse_double(arg.c_str(), "steps");
        if (!(steps_d >= 0 && steps_d <= 1e9)) {
          throw deepsz::codec::BadOptions("steps must be in [0, 1e9]");
        }
        fspec.steps = static_cast<std::int64_t>(steps_d);
        have_steps = true;
      } else {
        return usage();
      }
    }
    auto m = load_tool_model(argv[2]);
    fspec.prune.keep_ratio = m.keep_ratio;
    if (keep_override > 0.0) {
      for (auto& [name, ratio] : fspec.prune.keep_ratio) {
        ratio = keep_override;
      }
    }
    auto report = deepsz::compress::finetune_and_encode(
        m.net, m.train.images, m.train.labels, m.test.images, m.test.labels,
        fspec);
    write_file(argv[3], report.compress.model.bytes);
    std::printf("fine-tuned %s: step %lld -> %lld, loss %.4f, top-1 %.4f -> "
                "%.4f\n",
                argv[2], static_cast<long long>(report.start_step),
                static_cast<long long>(report.end_step), report.final_loss,
                report.acc_start.top1, report.acc_tuned.top1);
    for (const auto& path : report.checkpoints) {
      std::printf("  checkpoint %s\n", path.c_str());
    }
    for (const auto& [layer, eb] : report.checkpoint_bounds) {
      std::printf("  bound %-8s %g\n", layer.c_str(), eb);
    }
    std::printf("%s: %zu -> %zu bytes (%.1fx), decoded top-1 %.4f, %s\n",
                report.compress.strategy.c_str(),
                report.compress.dense_fc_bytes,
                report.compress.model.compressed_payload_bytes(),
                report.compress.compression_ratio,
                report.compress.acc_decoded.top1, argv[3]);
    return kExitOk;
  }
  if (cmd == "sz-compress" && argc >= 4 && argc <= 6) {
    auto data = as_floats(read_file(argv[2]));
    const double eb = argc >= 5 ? parse_double(argv[4], "error bound") : 1e-3;
    auto codec = registry.make_float(argc >= 6 ? argv[5] : "sz");
    auto stream = codec->encode(data, deepsz::codec::FloatParams{eb});
    write_file(argv[3], stream);
    std::printf("%zu floats -> %zu bytes (%.2fx, %s) in %.0f ms\n",
                data.size(), stream.size(),
                static_cast<double>(data.size() * 4) / stream.size(),
                codec->name().c_str(), timer.millis());
    return kExitOk;
  }
  if (cmd == "sz-decompress" && argc == 4) {
    auto codec = registry.make_float("sz");
    auto back = codec->decode(read_file(argv[2]));
    write_file(argv[3], as_bytes(back));
    std::printf("%zu floats restored in %.0f ms\n", back.size(),
                timer.millis());
    return kExitOk;
  }
  if (cmd == "sz-info" && argc == 3) {
    auto info = deepsz::sz::inspect(read_file(argv[2]));
    std::printf("stream version  %u\n", info.stream_version);
    std::printf("count           %llu\n",
                static_cast<unsigned long long>(info.count));
    std::printf("abs error bound %g\n", info.abs_error_bound);
    std::printf("quant bins      %u\n", info.quant_bins);
    std::printf("block size      %u\n", info.block_size);
    if (info.stream_version >= 2) {
      std::printf("chunk size      %u\n", info.chunk_size);
      std::printf("chunks          %llu\n",
                  static_cast<unsigned long long>(info.n_chunks));
    }
    std::printf("unpredictable   %llu\n",
                static_cast<unsigned long long>(info.unpredictable));
    std::printf("backend         %s\n",
                deepsz::lossless::codec_name(info.backend).c_str());
    return kExitOk;
  }
  if (cmd == "zfp-compress" && argc >= 4 && argc <= 5) {
    auto data = as_floats(read_file(argv[2]));
    const double tol = argc >= 5 ? parse_double(argv[4], "tolerance") : 1e-3;
    auto codec = registry.make_float("zfp");
    auto stream = codec->encode(data, deepsz::codec::FloatParams{tol});
    write_file(argv[3], stream);
    std::printf("%zu floats -> %zu bytes (%.2fx)\n", data.size(),
                stream.size(),
                static_cast<double>(data.size() * 4) / stream.size());
    return kExitOk;
  }
  if (cmd == "zfp-decompress" && argc == 4) {
    auto codec = registry.make_float("zfp");
    auto back = codec->decode(read_file(argv[2]));
    write_file(argv[3], as_bytes(back));
    std::printf("%zu floats restored\n", back.size());
    return kExitOk;
  }
  if (cmd == "pack" && argc >= 4 && argc <= 5) {
    auto data = read_file(argv[2]);
    auto codec = registry.make_byte(argc >= 5 ? argv[4] : "zstd");
    auto frame = codec->encode(data);
    write_file(argv[3], frame);
    std::printf("%zu -> %zu bytes (%.3fx, %s)\n", data.size(), frame.size(),
                static_cast<double>(data.size()) / frame.size(),
                codec->name().c_str());
    return kExitOk;
  }
  if (cmd == "unpack" && argc == 4) {
    auto codec = registry.make_byte("store");  // frames are self-describing
    auto data = codec->decode(read_file(argv[2]));
    write_file(argv[3], data);
    std::printf("%zu bytes restored\n", data.size());
    return kExitOk;
  }
  if (cmd == "model-info" && argc == 3) {
    auto bytes = read_file(argv[2]);
    deepsz::core::ContainerReader reader(bytes);
    auto decoded = deepsz::core::decode_model(bytes, false);
    std::printf("%zu fc-layer(s), seekable index: %s\n",
                decoded.layers.size(),
                reader.has_footer_index() ? "yes" : "no");
    for (const auto& l : decoded.layers) {
      std::printf("  %-8s %lld x %lld, %zu stored entries%s\n",
                  l.name.c_str(), static_cast<long long>(l.rows),
                  static_cast<long long>(l.cols), l.stored_entries(),
                  decoded.biases.count(l.name) ? ", bias present" : "");
    }
    std::printf("decode: %.1f ms (lossless %.1f, SZ %.1f)\n",
                decoded.timing.total_ms(), decoded.timing.lossless_ms,
                decoded.timing.sz_ms);
    return kExitOk;
  }
  if (cmd == "diff" && argc >= 5) {
    deepsz::core::DeltaOptions dopts;
    dopts.base_id = argv[2];  // how consumers locate the base, by default
    for (int i = 5; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument("diff: " + arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--residual-codec") {
        dopts.residual_codec = next();
      } else if (arg == "--lossless") {
        dopts.lossless_codec = next();
      } else if (arg == "--eb") {
        dopts.residual_eb = parse_double(next(), "error bound");
      } else if (arg == "--base-id") {
        dopts.base_id = next();
      } else {
        return usage();
      }
    }
    // The base may itself be a delta: resolve its whole file chain so the
    // new delta diffs against the fully reconstructed base.
    std::set<std::uint32_t> visited;
    auto base = open_container_chain(
        argv[2], visited, deepsz::core::ContainerReader::kMaxChainDepth);
    auto target_bytes = read_file(argv[3]);
    auto delta =
        deepsz::core::encode_delta_model(*base->reader, target_bytes, dopts);
    write_file(argv[4], delta.bytes);

    std::printf("%-10s %-6s %-13s %12s %12s\n", "layer", "kind", "mask",
                "delta-bytes", "full-bytes");
    for (const auto& st : delta.stats) {
      std::printf("%-10s %-6s %-13s %12zu %12zu\n", st.layer.c_str(),
                  kind_name(st.kind),
                  st.kind == deepsz::core::LayerKind::kDelta
                      ? mask_name(st.mask_mode)
                      : "-",
                  st.payload_bytes(), st.target_bytes);
    }
    using deepsz::core::LayerKind;
    std::printf("%zu layer(s): %zu full, %zu same, %zu delta\n",
                delta.stats.size(), delta.count(LayerKind::kFull),
                delta.count(LayerKind::kSame), delta.count(LayerKind::kDelta));
    std::printf("shipped %zu bytes instead of %zu (%.1fx fewer) -> %s\n",
                delta.bytes.size(), delta.target_container_bytes,
                delta.shipped_ratio(), argv[4]);
    return kExitOk;
  }
  if (cmd == "inspect" && argc == 3) {
    // Walk the base chain hop by hop, resolving base_id like the serving
    // daemon's cold fallback; the top container gets the per-layer table.
    std::set<std::uint32_t> visited;
    std::string path = argv[2];
    for (int depth = 0;; ++depth) {
      auto bytes = read_file(path);
      deepsz::core::ContainerReader reader(bytes);
      std::printf("%s%s: DSZC v%u, %zu layer(s), %zu bytes, crc 0x%08x\n",
                  depth ? "  base -> " : "", path.c_str(), reader.version(),
                  reader.num_layers(), bytes.size(), reader.container_crc());
      if (depth == 0) {
        for (const auto& e : reader.entries()) {
          std::printf("  %-10s %-6s %lld x %lld, %zu payload byte(s)%s%s\n",
                      e.name.c_str(), kind_name(e.kind),
                      static_cast<long long>(e.rows),
                      static_cast<long long>(e.cols), e.payload_bytes(),
                      e.kind == deepsz::core::LayerKind::kDelta ? ", mask "
                                                                : "",
                      e.kind == deepsz::core::LayerKind::kDelta
                          ? mask_name(e.mask_mode)
                          : "");
        }
      }
      if (!reader.is_delta()) break;
      std::printf("  declares base \"%s\" (crc 0x%08x)\n",
                  reader.base_id().c_str(), reader.base_crc());
      if (!visited.insert(reader.container_crc()).second) {
        std::printf("  chain stops: cycle detected\n");
        break;
      }
      if (depth + 1 >= deepsz::core::ContainerReader::kMaxChainDepth) {
        std::printf("  chain stops: deeper than %d\n",
                    deepsz::core::ContainerReader::kMaxChainDepth);
        break;
      }
      const std::string next_path =
          resolve_base_path(path, reader.base_id());
      if (!file_exists(next_path)) {
        std::printf("  chain stops: base file not found\n");
        break;
      }
      path = next_path;
    }
    return kExitOk;
  }
  if (cmd == "serve-bench" && argc >= 3 && argc <= 7) {
    // "--native" may appear anywhere after the container path; the numeric
    // arguments keep their positional order.
    bool native = false;
    std::vector<const char*> pos;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--native") {
        native = true;
      } else {
        pos.push_back(argv[i]);
      }
    }
    if (pos.size() > 3) return usage();
    // Range-check the doubles BEFORE casting: an out-of-range float-to-int
    // conversion is UB (the sanitizer CI job would abort on it).
    const double requests_d =
        pos.size() >= 1 ? parse_double(pos[0], "requests") : 64.0;
    const double batch_d = pos.size() >= 2 ? parse_double(pos[1], "batch") : 8.0;
    const double cache_mb =
        pos.size() >= 3 ? parse_double(pos[2], "cache-mb") : 64.0;
    if (!(requests_d >= 2 && requests_d <= 1e6) ||
        !(batch_d >= 1 && batch_d <= 1e5) ||
        !(cache_mb >= 0 && cache_mb <= 1e6)) {
      throw deepsz::codec::BadOptions(
          "serve-bench: need 2 <= requests <= 1e6, 1 <= batch <= 1e5, "
          "0 <= cache-mb <= 1e6");
    }
    const int requests = static_cast<int>(requests_d);
    const int batch = static_cast<int>(batch_d);

    deepsz::serve::ModelStoreOptions sopts;
    sopts.cache_budget_bytes =
        static_cast<std::size_t>(cache_mb * (1 << 20));
    // --native mirrors the serving daemon's store: each layer resident in
    // its native serving form (a "dc" container stays codebook-CSR, a
    // pruned layer CSR-only, never dense f32).
    sopts.native_form = native;
    deepsz::serve::ModelStore store(read_file(argv[2]), sopts);
    const auto in_features = store.reader().entry(std::size_t{0}).cols;

    deepsz::util::Pcg32 rng(0xbe9c);
    auto make_batch = [&] {
      deepsz::nn::Tensor x({batch, in_features});
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        x[i] = static_cast<float>(rng.normal(0.0, 1.0));
      }
      return x;
    };

    // One fresh session per request, as a request-scoped server would: every
    // request fetches its layers from the store again, so the warm numbers
    // measure the cache, not a session that privately pinned the whole model.
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(requests));
    for (int r = 0; r < requests; ++r) {
      if (r == 1) store.reset_stats();  // split cold stats from warm stats
      auto x = make_batch();
      deepsz::serve::InferenceSession session(store);
      timer.reset();
      auto y = session.infer(x);
      latencies.push_back(timer.millis());
      (void)y;
    }

    auto warm = std::vector<double>(latencies.begin() + 1, latencies.end());
    std::sort(warm.begin(), warm.end());
    auto pct = [&](double p) {
      const auto idx = static_cast<std::size_t>(p * (warm.size() - 1));
      return warm[idx];
    };
    const auto stats = store.stats();
    std::printf("%zu layer(s), %d requests x batch %d, cache budget %.1f MB\n",
                store.reader().num_layers(), requests, batch, cache_mb);
    for (const auto& e : store.reader().entries()) {
      auto served = store.peek(e.name);
      std::printf("  %-8s %lld x %lld, %zu compressed bytes%s\n",
                  e.name.c_str(), static_cast<long long>(e.rows),
                  static_cast<long long>(e.cols), e.payload_bytes(),
                  served ? ", cached" : "");
    }
    std::printf("cold request:  %.2f ms (codec work included)\n",
                latencies.front());
    std::printf("warm requests: p50 %.2f ms, p95 %.2f ms\n", pct(0.50),
                pct(0.95));
    // The full CacheStats snapshot, not just the derived hit rate: the
    // counters are what a regression in coalescing or eviction shows up in.
    std::printf(
        "warm cache:    %llu hit(s), %llu miss(es), %llu coalesced wait(s), "
        "%llu eviction(s)\n",
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.coalesced),
        static_cast<unsigned long long>(stats.evictions));
    std::printf(
        "               hit rate %.2f, codec time %.2f ms, resident %zu "
        "layer(s) / %.2f MB\n",
        stats.hit_rate(), stats.decode_ms, stats.cached_layers,
        static_cast<double>(stats.cached_bytes) / (1 << 20));
    std::printf(
        "               decode phases: lossless %.2f ms, error-bounded "
        "(block) %.2f ms, reconstruct %.2f ms\n",
        stats.lossless_ms, stats.eb_decode_ms, stats.reconstruct_ms);
    std::printf("               resident by form:");
    for (int f = 0; f < deepsz::serve::kNumServingForms; ++f) {
      std::printf(
          "%s %s %.2f MB", f ? "," : "",
          deepsz::serve::serving_form_name(
              static_cast<deepsz::serve::ServingForm>(f)),
          static_cast<double>(stats.form_bytes[static_cast<std::size_t>(f)]) /
              (1 << 20));
    }
    std::printf("\n");
    return kExitOk;
  }
  return usage();
}

int run_serve(int argc, char** argv) {
  using deepsz::server::Server;
  deepsz::server::ServerOptions opts;
  opts.http.port = 8080;
  std::vector<std::pair<std::string, std::string>> models;  // name -> path
  std::string trace_file;
  bool tracing = true;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument("serve: " + arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--model") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        throw std::invalid_argument(
            "serve: --model expects name=path, got \"" + spec + "\"");
      }
      models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--port") {
      opts.http.port = static_cast<int>(parse_double(next(), "port"));
    } else if (arg == "--cache-bytes") {
      opts.cache_budget_bytes =
          static_cast<std::size_t>(parse_double(next(), "cache-bytes"));
    } else if (arg == "--cache-mb") {
      opts.cache_budget_bytes = static_cast<std::size_t>(
          parse_double(next(), "cache-mb") * (1 << 20));
    } else if (arg == "--max-batch") {
      opts.scheduler.max_batch =
          static_cast<std::int64_t>(parse_double(next(), "max-batch"));
    } else if (arg == "--max-delay-us") {
      opts.scheduler.max_delay_us =
          static_cast<std::int64_t>(parse_double(next(), "max-delay-us"));
    } else if (arg == "--queue-cap") {
      opts.scheduler.queue_capacity =
          static_cast<std::size_t>(parse_double(next(), "queue-cap"));
    } else if (arg == "--workers") {
      opts.scheduler.workers_per_model =
          static_cast<int>(parse_double(next(), "workers"));
    } else if (arg == "--trace-file") {
      trace_file = next();
    } else if (arg == "--no-trace") {
      tracing = false;
    } else {
      throw std::invalid_argument("serve: unknown flag \"" + arg + "\"");
    }
  }
  if (models.empty()) {
    throw std::invalid_argument("serve: need at least one --model name=path");
  }

  // Install the handlers before the (possibly slow) model loads so a
  // supervisor's SIGTERM during startup still takes the clean exit path.
  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);

  // Tracing is on by default — the bench gate holds its p50 cost under 3% —
  // so GET /v1/trace always has data; --no-trace reduces every span site to
  // one relaxed load.
  deepsz::obs::Tracer::set_enabled(tracing);

  Server server(opts);
  for (const auto& [name, path] : models) {
    auto model = server.repository().load_file(name, path);
    std::fprintf(stderr, "loaded %s v%llu from %s (%zu layer(s), %lld -> %lld)\n",
                 name.c_str(), static_cast<unsigned long long>(model->version),
                 path.c_str(), model->store->reader().num_layers(),
                 static_cast<long long>(model->in_features),
                 static_cast<long long>(model->out_features));
  }
  server.start_http();
  std::printf("deepsz_tool serve: %zu model(s) on port %d "
              "(cache budget %.1f MB; SIGINT/SIGTERM to stop)\n",
              models.size(), server.http_port(),
              static_cast<double>(opts.cache_budget_bytes) / (1 << 20));
  std::fflush(stdout);

  while (!g_serve_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down\n");
  server.stop();
  if (!trace_file.empty()) {
    const std::string json =
        deepsz::obs::to_chrome_json(deepsz::obs::Tracer::snapshot());
    write_file(trace_file,
               {reinterpret_cast<const std::uint8_t*>(json.data()),
                json.size()});
    std::fprintf(stderr, "wrote trace (%zu bytes) to %s\n", json.size(),
                 trace_file.c_str());
  }
  const auto s = server.metrics().snapshot();
  std::printf("served %llu request(s): %llu ok, %llu shed, %llu failed; "
              "%llu batch(es), mean %.2f rows\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.requests - s.ok - s.shed),
              static_cast<unsigned long long>(s.batches),
              s.mean_batch_rows());
  return kExitOk;
}

/// `deepsz_tool trace <model.dszc> <out.json> [requests=4] [rows=2]`:
/// loads the container into a fresh serving stack, runs one cold inference
/// (queue wait + every per-layer decode with phase/form attribution +
/// forward) and a few warm ones, then writes the Chrome trace-event JSON —
/// the offline twin of GET /v1/trace, for profiling a container without
/// standing a daemon up.
int run_trace(int argc, char** argv) {
  if (argc < 4 || argc > 6) return usage();
  const double requests_d = argc >= 5 ? parse_double(argv[4], "requests") : 4.0;
  const double rows_d = argc >= 6 ? parse_double(argv[5], "rows") : 2.0;
  if (!(requests_d >= 1 && requests_d <= 1e5) ||
      !(rows_d >= 1 && rows_d <= 1e4)) {
    throw deepsz::codec::BadOptions(
        "trace: need 1 <= requests <= 1e5, 1 <= rows <= 1e4");
  }
  const int requests = static_cast<int>(requests_d);
  const std::int64_t rows = static_cast<std::int64_t>(rows_d);

  deepsz::obs::Tracer::set_enabled(true);

  deepsz::server::Server server;
  auto model = server.repository().load_file("model", argv[2]);
  deepsz::server::LoopbackTransport transport(server.handler());

  deepsz::util::Pcg32 rng(0x7ace);
  for (int r = 0; r < requests; ++r) {
    std::string csv;
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t c = 0; c < model->in_features; ++c) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.4f",
                      rng.normal(0.0, 1.0));
        csv += buf;
        csv += (c + 1 < model->in_features) ? ',' : '\n';
      }
    }
    const auto resp =
        transport.post("/v1/models/model:infer", csv, "text/csv");
    if (resp.status != 200) {
      throw std::runtime_error("trace: inference failed with HTTP " +
                               std::to_string(resp.status));
    }
  }
  server.stop();  // drains the scheduler so every span is recorded

  const auto snapshot = deepsz::obs::Tracer::snapshot();
  const std::string json = deepsz::obs::to_chrome_json(snapshot);
  write_file(argv[3], {reinterpret_cast<const std::uint8_t*>(json.data()),
                       json.size()});
  std::printf(
      "wrote %zu span(s) (%llu dropped) to %s\n"
      "open in https://ui.perfetto.dev or chrome://tracing\n",
      snapshot.events.size(),
      static_cast<unsigned long long>(snapshot.dropped), argv[3]);
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const deepsz::codec::UnknownCodec& e) {
    std::fprintf(stderr, "deepsz_tool: %s\n", e.what());
    usage();
    return kExitUnknownCodec;
  } catch (const deepsz::compress::UnknownCompressor& e) {
    std::fprintf(stderr, "deepsz_tool: %s\n", e.what());
    usage();
    return kExitUnknownCodec;
  } catch (const deepsz::codec::BadOptions& e) {
    std::fprintf(stderr, "deepsz_tool: %s\n", e.what());
    usage();
    return kExitBadOptions;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "deepsz_tool: %s\n", e.what());
    usage();
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepsz_tool: %s\n", e.what());
    return kExitRuntime;
  }
}
