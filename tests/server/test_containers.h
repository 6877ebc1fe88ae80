// Shared fixtures for the server tests: small servable containers built
// in-memory (chainable fc stacks, so check_fc_chain accepts them).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"

namespace deepsz::server::testing {

/// A chainable fc stack: dims[0] -> dims[1] -> ... -> dims.back().
/// Layer i is named `prefix + i` with shape [dims[i+1] x dims[i]].
inline std::vector<std::uint8_t> make_container(
    const std::vector<std::int64_t>& dims, std::uint64_t seed = 7,
    const std::string& prefix = "fc") {
  std::vector<sparse::PrunedLayer> layers;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        prefix + std::to_string(i + 1), dims[i + 1], dims[i], 0.2,
        seed + i));
  }
  return core::encode_model(layers, {}, core::ContainerOptions{}).bytes;
}

/// The stock tiny stack used across the server tests: 32 -> 24 -> 16.
inline std::vector<std::uint8_t> tiny_container(std::uint64_t seed = 7) {
  return make_container({32, 24, 16}, seed);
}

/// The same chainable stack Deep-Compression coded: "dc" codebook data
/// streams + "huffman" index streams. A native-form ModelStore (the
/// repository default) serves these as codebook-CSR.
inline std::vector<std::uint8_t> make_dc_container(
    const std::vector<std::int64_t>& dims, std::uint64_t seed = 7,
    const std::string& prefix = "fc", int bits = 4) {
  std::vector<sparse::PrunedLayer> layers;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        prefix + std::to_string(i + 1), dims[i + 1], dims[i], 0.2,
        seed + i));
  }
  core::ContainerOptions copts;
  copts.data_codec = "dc:bits=" + std::to_string(bits) + ",iters=8";
  copts.index_codec = "huffman";
  return core::encode_model(layers, {}, copts).bytes;
}

/// The stock tiny stack as a dc container: 32 -> 24 -> 16.
inline std::vector<std::uint8_t> tiny_dc_container(std::uint64_t seed = 7) {
  return make_dc_container({32, 24, 16}, seed);
}

}  // namespace deepsz::server::testing
