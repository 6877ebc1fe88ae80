#include "core/pipeline.h"

#include <stdexcept>

#include "compress/registry.h"
#include "compress/session.h"
#include "serve/serving_form.h"
#include "util/log.h"
#include "util/timer.h"

namespace deepsz::core {

// run_deepsz predates the pluggable compressor API and is kept as a thin
// shim: it maps DeepSzOptions onto a CompressSpec, drives the "deepsz"
// strategy through a CompressionSession (compress/session.h), and repackages
// the session report in the shape the evaluation tables consume. New code
// should use the session API directly — it exposes the stages, progress and
// cancellation this facade hides.
DeepSzReport run_deepsz(nn::Network& net, const nn::Tensor& train_images,
                        const std::vector<int>& train_labels,
                        const nn::Tensor& test_images,
                        const std::vector<int>& test_labels,
                        const DeepSzOptions& options) {
  compress::CompressSpec spec;
  spec.prune.keep_ratio = options.keep_ratio;
  spec.prune.retrain_epochs = options.retrain_epochs;
  spec.prune.sgd = options.retrain_sgd;
  spec.expected_acc_loss = options.expected_acc_loss;
  spec.target_ratio = options.target_ratio;
  spec.assessment = options.assessment;
  spec.data_codec = options.data_codec;  // empty = derive "sz:..." spec
  spec.index_codec = options.index_codec;

  compress::CompressionSession session(
      compress::CompressorRegistry::instance().make("deepsz"), net,
      train_images, train_labels, test_images, test_labels, std::move(spec));
  auto result = session.run();

  DeepSzReport report;
  report.acc_original = result.acc_original;
  report.acc_pruned = result.acc_pruned;
  report.acc_decoded = result.acc_decoded;
  report.prune = result.prune;
  report.assessments = std::move(result.assessments);
  report.chosen = std::move(result.chosen);
  report.model = std::move(result.model);
  report.dense_fc_bytes = result.dense_fc_bytes;
  report.csr_bytes = result.csr_bytes;
  report.compression_ratio = result.compression_ratio;
  report.encode_seconds = result.encode_seconds;
  report.decode_timing = result.decode_timing;
  return report;
}

DecodeTiming load_compressed_model(std::span<const std::uint8_t> bytes,
                                   nn::Network& net) {
  DecodedModel decoded = decode_model(bytes, /*reconstruct_dense=*/false);
  // Directory-only parse (no stream decode) for per-layer codec specs: the
  // bias-mismatch policy below depends on the layer's serving form.
  ContainerReader reader(bytes);
  // Repeated loads are idempotent: the network ends up in the same state no
  // matter how many times (or into what prior state) the model is loaded,
  // and each call reports only its own timing — decode_model starts from a
  // zeroed DecodeTiming (reconstruct_ms stays 0 with reconstruct_dense off),
  // so the reload cost below is assigned, never accumulated, and a
  // DeepSzReport that stores the result never double-reports a phase.
  util::WallTimer timer;
  load_layers_into_network(decoded.layers, net);
  for (const auto& [name, bias] : decoded.biases) {
    auto* d = net.find_dense(name);
    if (d == nullptr) continue;
    if (static_cast<std::int64_t>(bias.size()) == d->bias().numel()) {
      std::copy(bias.begin(), bias.end(), d->bias().data());
    } else if (reader.contains(name) &&
               serve::native_form_for_codec_spec(
                   reader.entry(name).data.codec) ==
                   serve::ServingForm::kCodebookCsr) {
      // A codebook-form container is served compressed-domain with the bias
      // bound straight into the forward kernel — there is no "keep the
      // layer's own bias" fallback there, so a mismatch that would be
      // silently masked here would fail only at serving time. Refuse it now.
      throw std::runtime_error(
          "load_compressed_model: bias for codebook layer \"" + name +
          "\" has " + std::to_string(bias.size()) + " element(s), layer "
          "expects " + std::to_string(d->bias().numel()));
    } else {
      // A mismatched bias cannot be applied, but skipping it silently hides
      // a malformed (or wrong-architecture) container from the operator.
      DSZ_LOG_WARN << "load_compressed_model: bias for layer \"" << name
                   << "\" has " << bias.size() << " element(s), layer expects "
                   << d->bias().numel() << " — keeping the layer's own bias";
    }
  }
  decoded.timing.reconstruct_ms = timer.millis();
  return decoded.timing;
}

}  // namespace deepsz::core
