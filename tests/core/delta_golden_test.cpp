// Golden delta-container fixture: a checked-in DSZC v4 delta plus its v3
// base that the chain-resolving decoder must keep reconstructing
// bit-exactly, forever. The reconstructed layer CRCs are the SAME constants
// indexed_v3.dszc pins — a delta container's whole contract is that it
// reproduces its target container's decoded arrays exactly.
//
// The base is written by tools/make_golden_fixtures.cpp; the delta is a
// frozen artifact, because its target indexed_v3.dszc is one. Regenerate
// the base (and these constants, from the tool's output) only for a
// deliberate, versioned format change.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "tests/golden_fixture.h"
#include "util/crc32.h"

namespace deepsz::core {
namespace {

using testing::float_crc;
using testing::read_fixture;

std::vector<float> expected_bias() {
  std::vector<float> bias(24);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.01f * static_cast<float>(i) - 0.05f;
  }
  return bias;
}

TEST(GoldenDelta, BaseFixtureDecodesBitExactly) {
  auto bytes = read_fixture("delta_base_v3.dszc");
  ASSERT_EQ(bytes.size(), 1667u);
  ASSERT_EQ(util::crc32(bytes), 0x1e621565u) << "fixture file changed";

  auto decoded = decode_model(bytes);
  ASSERT_EQ(decoded.layers.size(), 2u);
  // fc6 is the perturbed variant (different data CRC than indexed_v3, same
  // sparsity pattern); fc7 is bit-identical to indexed_v3's.
  EXPECT_EQ(float_crc(decoded.layers[0].data), 0x4d799706u);
  EXPECT_EQ(util::crc32(decoded.layers[0].index), 0x4dc15ab1u);
  EXPECT_EQ(float_crc(decoded.layers[1].data), 0x6cc7b5f7u);
  EXPECT_EQ(util::crc32(decoded.layers[1].index), 0xd9e41fdeu);
}

TEST(GoldenDelta, DeltaFixtureReconstructsTargetBitExactly) {
  auto base_bytes = read_fixture("delta_base_v3.dszc");
  auto bytes = read_fixture("delta_v3.dszc");
  ASSERT_EQ(bytes.size(), 1564u);
  ASSERT_EQ(util::crc32(bytes), 0x47c0038fu) << "fixture file changed";

  ContainerReader reader(bytes);
  EXPECT_EQ(reader.version(), 4u);
  EXPECT_TRUE(reader.is_delta());
  EXPECT_EQ(reader.base_id(), "delta_base_v3.dszc");
  EXPECT_EQ(reader.base_crc(), 0x1e621565u);
  EXPECT_TRUE(reader.has_footer_index());
  reader.set_base(std::make_shared<ContainerReader>(base_bytes));

  ASSERT_EQ(reader.num_layers(), 2u);
  EXPECT_EQ(reader.entry(std::size_t{0}).kind, LayerKind::kDelta);
  EXPECT_EQ(reader.entry(std::size_t{1}).kind, LayerKind::kSame);

  // The reconstructed arrays pin to indexed_v3.dszc's constants: the delta
  // resolves to the exact bits of the target it was diffed from.
  auto fc6 = reader.decode_layer(std::size_t{0});
  EXPECT_EQ(float_crc(fc6.data), 0xd6b6a7f3u);
  EXPECT_EQ(util::crc32(fc6.index), 0x4dc15ab1u);
  auto fc7 = reader.decode_layer(std::size_t{1});
  EXPECT_EQ(float_crc(fc7.data), 0x6cc7b5f7u);
  EXPECT_EQ(util::crc32(fc7.index), 0xd9e41fdeu);
  EXPECT_EQ(reader.decode_bias("fc6"), expected_bias());
}

TEST(GoldenDelta, DeltaFixtureWithoutBaseFailsCleanly) {
  auto bytes = read_fixture("delta_v3.dszc");
  ContainerReader reader(bytes);
  EXPECT_THROW((void)reader.decode_layer(std::size_t{0}),
               std::runtime_error);
  EXPECT_THROW((void)reader.decode_layer(std::size_t{1}),
               std::runtime_error);
}

TEST(GoldenDelta, DeltaFixtureRejectsWrongBase) {
  auto bytes = read_fixture("delta_v3.dszc");
  auto wrong = read_fixture("indexed_v3.dszc");
  ContainerReader reader(bytes);
  EXPECT_THROW(reader.set_base(std::make_shared<ContainerReader>(wrong)),
               std::runtime_error);
}

// The v4 writer, pinned byte for byte: CI's fixture regeneration covers v3
// output only. One fixed delta with a record of every kind — fc6 values
// nudged (delta, same mask), fc7 untouched (same), fc8 re-drawn (delta with
// a mask stream), fc9 new in the target (full) — written with codecs whose
// output does not depend on the host's SIMD support (f32 data and residual
// streams, zstd lossless streams).
TEST(GoldenDelta, EncoderOutputIsPinned) {
  std::vector<sparse::PrunedLayer> base_layers = {
      data::synthesize_pruned_layer("fc6", 24, 32, 0.25, 1001),
      data::synthesize_pruned_layer("fc7", 16, 24, 0.30, 1002),
      data::synthesize_pruned_layer("fc8", 8, 16, 0.50, 1003)};
  auto target_layers = base_layers;
  for (std::size_t i = 0; i < target_layers[0].data.size(); ++i) {
    target_layers[0].data[i] +=
        0.0005f * static_cast<float>(static_cast<int>(i % 7) - 3);
  }
  target_layers[2] = data::synthesize_pruned_layer("fc8", 8, 16, 0.50, 2003);
  target_layers.push_back(
      data::synthesize_pruned_layer("fc9", 4, 8, 0.50, 1004));
  const std::map<std::string, std::vector<float>> biases = {
      {"fc6", expected_bias()}, {"fc9", {0.5f, -0.25f, 0.125f, 1.0f}}};

  ContainerOptions copts;
  copts.data_codec = "f32";
  const auto base = encode_model(base_layers, {}, copts, biases).bytes;
  const auto target = encode_model(target_layers, {}, copts, biases).bytes;
  DeltaOptions dopts;
  dopts.residual_codec = "f32";
  dopts.base_id = "base.dszc";
  const auto delta = encode_delta_model(base, target, dopts);

  ASSERT_EQ(delta.stats.size(), 4u);
  EXPECT_EQ(delta.stats[0].kind, LayerKind::kDelta);
  EXPECT_EQ(delta.stats[0].mask_mode, MaskMode::kSameAsBase);
  EXPECT_EQ(delta.stats[1].kind, LayerKind::kSame);
  EXPECT_EQ(delta.stats[2].kind, LayerKind::kDelta);
  EXPECT_NE(delta.stats[2].mask_mode, MaskMode::kSameAsBase);
  EXPECT_EQ(delta.stats[3].kind, LayerKind::kFull);
  EXPECT_EQ(delta.bytes.size(), 2437u);
  EXPECT_EQ(util::crc32(delta.bytes), 0xad52ff68u)
      << "delta writer output moved";
}

}  // namespace
}  // namespace deepsz::core
