// The pluggable compression front-end: one strategy interface that DeepSZ
// and every baseline implement, so any consumer (tool, benches, serving,
// tests) drives any method uniformly and every method emits the same v3
// indexed container.
//
// A strategy plugs into the staged pipeline of Figure 1 run by a
// CompressionSession (session.h):
//
//   Prune    — magnitude pruning + masked retraining (strategy-independent);
//   Assess   — per-layer error-bound assessment, Algorithm 1 (only for
//              strategies with a continuous error bound: deepsz, zfp);
//   Optimize — error-bound configuration optimization, Algorithm 2
//              (expected-accuracy or expected-ratio mode);
//   Encode   — emit the v3 model container with per-stream codec specs.
//
// Strategies without a tunable bound (deep-compression, weightless, store)
// skip Assess/Optimize; their Encode maps the method onto container codec
// specs ("dc:bits=5", "bloomier:...", "f32") so ContainerReader, ModelStore
// and InferenceSession work on their output unchanged.
//
// Strategies are resolved by registry spec — `name` or `name:key=value,...`,
// e.g. "deepsz:expected_acc=0.004" or "deep-compression:bits=5" — through
// CompressorRegistry (registry.h), mirroring the codec registry.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/assessment.h"
#include "core/model_codec.h"
#include "core/optimizer.h"
#include "core/pruner.h"
#include "serve/serving_form.h"

namespace deepsz::compress {

/// Pipeline stages, in execution order.
enum class Stage { kPrune = 0, kAssess = 1, kOptimize = 2, kEncode = 3 };
inline constexpr int kNumStages = 4;
const char* stage_name(Stage stage);

/// Thrown at the next checkpoint after CompressionSession::request_cancel().
class Cancelled : public std::runtime_error {
 public:
  Cancelled() : std::runtime_error("compression session cancelled") {}
};

/// Thrown when a spec names a strategy the registry does not know.
class UnknownCompressor : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Per-stage outcome, kept current by the session.
struct StageReport {
  Stage stage = Stage::kPrune;
  bool done = false;     // results are available (ran or skipped)
  bool skipped = false;  // strategy declared the stage a no-op
  int runs = 0;          // executions; >1 shows stage re-use
  double seconds = 0.0;  // wall time of the last run
  std::string detail;    // one-line human summary
};

/// Registry entry metadata, as shown by `deepsz_tool codecs`.
struct CompressorInfo {
  std::string name;
  bool error_bounded = false;  // runs Assess/Optimize (continuous eb knob)
  std::string summary;         // one-line description
  std::string options_help;    // accepted spec keys, "" when none
  /// The serving form this strategy's containers occupy in a native-form
  /// ModelStore (serve/serving_form.h): deep-compression stays resident as
  /// kCodebookCsr (~4-5 bits/weight); pruning-based strategies decode to
  /// CSR arrays only (kSparseCsr, at or below kSparseCsrMaxDensity);
  /// weightless stores every position of a mostly-dense matrix, so it
  /// serves as kDenseF32.
  serve::ServingForm native_form = serve::ServingForm::kDenseF32;
};

/// Strategy-independent session configuration. Spec-level options (e.g.
/// "deepsz:expected_acc=0.004") are folded in by the strategy's configure()
/// before any stage runs, so explicit field assignments win only when the
/// spec leaves them untouched.
struct CompressSpec {
  /// Stage 1: per-fc-layer keep ratios and masked retraining.
  core::PruneConfig prune;

  /// Stages 2-3, expected-accuracy mode (the default): accuracy-loss budget
  /// as a fraction (0.004 = 0.4%).
  double expected_acc_loss = 0.004;
  /// Stages 2-3, expected-ratio mode: when set, the compressed fc payload
  /// must not exceed (dense fc bytes) / target_ratio.
  std::optional<double> target_ratio;

  /// Stage 2 knobs (expected_acc_loss and codec are filled by the session
  /// and strategy respectively).
  core::AssessmentConfig assessment;

  /// Container overrides. Empty uses the strategy's defaults (deepsz: an
  /// "sz:..." spec consistent with the assessment; deep-compression:
  /// "dc:bits=.." + "huffman"; weightless: "bloomier:.." + "zstd"; ...).
  std::string data_codec;
  std::string index_codec;
};

/// Shared state a session threads through the stages. Strategies read the
/// fields earlier stages filled and write the ones their stage owns.
struct SessionState {
  nn::Network* net = nullptr;
  const nn::Tensor* train_images = nullptr;
  const std::vector<int>* train_labels = nullptr;
  const nn::Tensor* test_images = nullptr;
  const std::vector<int>* test_labels = nullptr;
  CompressSpec spec;

  // Filled by Prune (or adopt_pruned()).
  nn::Accuracy acc_original;
  nn::Accuracy acc_pruned;
  core::PruneReport prune;
  std::vector<sparse::PrunedLayer> layers;  // the pruned fc-layers
  std::size_t dense_fc_bytes = 0;
  std::size_t csr_bytes = 0;
  std::shared_ptr<core::CachedHeadOracle> oracle;
  double baseline_top1 = 0.0;

  // Filled by Assess (error-bounded strategies only).
  std::vector<core::LayerAssessment> assessments;
  std::shared_ptr<codec::FloatCodec> assess_codec;  // codec assessed with

  // Filled by Optimize.
  core::OptimizerResult chosen;

  // Filled by Encode (the decoded-and-reloaded numbers the tables report).
  core::EncodedModel model;
  nn::Accuracy acc_decoded;
  core::DecodeTiming decode_timing;

  /// Throws Cancelled when the session's cancel flag is set. Strategies
  /// call this between units of work inside a stage (the session also
  /// checks at every stage boundary). Never null while a stage runs.
  std::function<void()> checkpoint;
  /// Progress sink; never null while a stage runs.
  std::function<void(Stage, const std::string&)> progress;
};

/// A compression method. Implementations must be stateless across sessions
/// (configuration from the spec string is fixed at construction), so one
/// instance can serve concurrent sessions.
class ModelCompressor {
 public:
  virtual ~ModelCompressor() = default;

  virtual CompressorInfo info() const = 0;

  /// Folds spec-level options into the session configuration before any
  /// stage runs (e.g. deepsz:expected_acc=0.004 sets expected_acc_loss).
  virtual void configure(CompressSpec& spec) const { (void)spec; }

  /// Stage 2. Fills state.assessments/assess_codec and returns true, or
  /// returns false when the strategy has no tunable bound (stage recorded
  /// as skipped).
  virtual bool assess(SessionState& state) {
    (void)state;
    return false;
  }

  /// Stage 3. Fills state.chosen and returns true, or false when skipped.
  virtual bool optimize(SessionState& state) {
    (void)state;
    return false;
  }

  /// Stage 4. Emits the v3 indexed container for state.layers. Every
  /// strategy must implement this — it is what makes the output servable.
  virtual core::EncodedModel encode(SessionState& state) = 0;
};

/// End-to-end result of a session run (the session keeps the live state;
/// this is the caller-facing snapshot the evaluation tables read).
struct CompressReport {
  std::string strategy;  // registry name of the strategy that ran
  nn::Accuracy acc_original;
  nn::Accuracy acc_pruned;
  nn::Accuracy acc_decoded;
  core::PruneReport prune;
  std::vector<core::LayerAssessment> assessments;
  core::OptimizerResult chosen;
  core::EncodedModel model;
  std::size_t dense_fc_bytes = 0;
  std::size_t csr_bytes = 0;
  double compression_ratio = 0.0;  // dense fc bytes / compressed payload
  double encode_seconds = 0.0;     // Assess + Optimize + Encode (Fig. 7a)
  core::DecodeTiming decode_timing;
  std::array<StageReport, kNumStages> stages;
};

}  // namespace deepsz::compress
