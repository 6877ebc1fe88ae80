// Reloading a compressed model into a network: the decode half of the
// DeepSZ pipeline. The four compression steps of Figure 1 (pruning, error
// bound assessment, configuration optimization, model generation) run
// through compress::CompressionSession (compress/session.h).
#pragma once

#include <cstdint>
#include <span>

#include "core/model_codec.h"
#include "nn/network.h"

namespace deepsz::core {

/// Decodes a compressed model and loads it into `net`.
DecodeTiming load_compressed_model(std::span<const std::uint8_t> bytes,
                                   nn::Network& net);

}  // namespace deepsz::core
