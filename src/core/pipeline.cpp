#include "core/pipeline.h"

#include <stdexcept>

#include "core/pruner.h"
#include "serve/serving_form.h"
#include "util/log.h"
#include "util/timer.h"

namespace deepsz::core {

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
  // so the reload cost below is assigned, never accumulated, and a report
  // that stores the result never double-reports a phase.
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
