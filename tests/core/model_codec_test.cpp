#include "core/model_codec.h"

#include <gtest/gtest.h>

#include "data/weight_synthesis.h"
#include "util/stats.h"

namespace deepsz::core {
namespace {

std::vector<sparse::PrunedLayer> two_layers() {
  return {data::synthesize_pruned_layer("fc6", 128, 512, 0.1, 1),
          data::synthesize_pruned_layer("fc7", 64, 128, 0.2, 2)};
}

TEST(ModelCodec, RoundTripWithinErrorBounds) {
  auto layers = two_layers();
  std::map<std::string, double> ebs = {{"fc6", 5e-3}, {"fc7", 1e-3}};
  auto model = encode_model(layers, ebs, ContainerOptions{});
  auto decoded = decode_model(model.bytes);
  ASSERT_EQ(decoded.layers.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& orig = layers[i];
    const auto& back = decoded.layers[i];
    EXPECT_EQ(back.name, orig.name);
    EXPECT_EQ(back.rows, orig.rows);
    EXPECT_EQ(back.cols, orig.cols);
    EXPECT_EQ(back.index, orig.index);  // lossless
    ASSERT_EQ(back.data.size(), orig.data.size());
    double bound = ebs.at(orig.name);
    EXPECT_LE(util::max_abs_error(orig.data, back.data),
              bound * (1 + 1e-12));
  }
}

TEST(ModelCodec, StatsAccounting) {
  auto layers = two_layers();
  auto model = encode_model(layers, {{"fc6", 1e-2}, {"fc7", 1e-2}},
                            ContainerOptions{});
  ASSERT_EQ(model.stats.size(), 2u);
  EXPECT_EQ(model.stats[0].dense_bytes, 128u * 512u * 4u);
  EXPECT_GT(model.stats[0].data_bytes, 0u);
  EXPECT_GT(model.stats[0].index_bytes, 0u);
  EXPECT_GT(model.compression_ratio(), 10.0);  // 10% kept + SZ
  EXPECT_EQ(model.dense_bytes(),
            model.stats[0].dense_bytes + model.stats[1].dense_bytes);
}

TEST(ModelCodec, MissingLayerUsesDefaultEb) {
  auto layers = two_layers();
  ContainerOptions opts;
  opts.default_eb = 2e-3;
  auto model = encode_model(layers, {{"fc6", 1e-2}}, opts);
  EXPECT_DOUBLE_EQ(model.stats[1].eb, 2e-3);
}

TEST(ModelCodec, CorruptPayloadDetectedByCrc) {
  auto layers = two_layers();
  auto model = encode_model(layers, {{"fc6", 1e-2}, {"fc7", 1e-2}},
                            ContainerOptions{});
  // Flip a byte deep inside the payload (past the header).
  model.bytes[model.bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(decode_model(model.bytes), std::runtime_error);
}

TEST(ModelCodec, TruncatedModelThrows) {
  auto layers = two_layers();
  auto model = encode_model(layers, {}, ContainerOptions{});
  model.bytes.resize(model.bytes.size() - 10);
  EXPECT_ANY_THROW(decode_model(model.bytes));
}

TEST(ModelCodec, DecodeTimingPhasesPopulated) {
  auto layers = two_layers();
  auto model = encode_model(layers, {{"fc6", 1e-2}, {"fc7", 1e-2}},
                            ContainerOptions{});
  auto decoded = decode_model(model.bytes, /*reconstruct_dense=*/true);
  EXPECT_GE(decoded.timing.lossless_ms, 0.0);
  EXPECT_GT(decoded.timing.sz_ms, 0.0);
  EXPECT_GT(decoded.timing.total_ms(), 0.0);
}

TEST(ModelCodec, BiasesRoundTripVerbatim) {
  auto layers = two_layers();
  std::map<std::string, std::vector<float>> biases = {
      {"fc6", {1.5f, -2.5f, 0.0f}},
      {"fc7", {0.25f}},
  };
  auto model = encode_model(layers, {}, ContainerOptions{}, biases);
  auto decoded = decode_model(model.bytes);
  ASSERT_EQ(decoded.biases.size(), 2u);
  EXPECT_EQ(decoded.biases.at("fc6"),
            (std::vector<float>{1.5f, -2.5f, 0.0f}));
  EXPECT_EQ(decoded.biases.at("fc7"), (std::vector<float>{0.25f}));
}

TEST(ModelCodec, NoBiasesMeansEmptyMap) {
  auto layers = two_layers();
  auto model = encode_model(layers, {}, ContainerOptions{});
  auto decoded = decode_model(model.bytes);
  EXPECT_TRUE(decoded.biases.empty());
}

TEST(ModelCodec, IndexCodecChoiceIsHonored) {
  auto layers = two_layers();
  for (auto codec : {lossless::CodecId::kGzipLike, lossless::CodecId::kZstdLike,
                     lossless::CodecId::kBloscLike}) {
    ContainerOptions opts;
    opts.index_codec = lossless::codec_name(codec);
    auto model = encode_model(layers, {}, opts);
    auto decoded = decode_model(model.bytes);
    ASSERT_EQ(decoded.layers[0].index, layers[0].index)
        << lossless::codec_name(codec);
  }
}

}  // namespace
}  // namespace deepsz::core
