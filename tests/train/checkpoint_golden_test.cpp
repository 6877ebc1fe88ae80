// Golden DSZK checkpoint fixture: a tiny checked-in training checkpoint the
// reader must keep decoding bit-exactly, forever. A failure here means the
// checkpoint wire format (or the sz/zstd decode path underneath it) changed
// behavior for existing files — that is a breaking release, not a refactor.
//
// The fixture is written by tools/make_golden_fixtures.cpp (hand-built
// state, not a Trainer run, so it is reproducible on any host); regenerate
// it (and these constants, from the tool's output) only for a deliberate,
// versioned format change.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/weight_synthesis.h"
#include "tests/golden_fixture.h"
#include "train/checkpoint.h"
#include "util/crc32.h"

namespace deepsz::train {
namespace {

using testing::float_crc;
using testing::read_fixture;

TEST(GoldenCheckpoint, CkptV1FixtureDecodesBitExactly) {
  auto bytes = read_fixture("ckpt_v1.dszk");
  ASSERT_EQ(bytes.size(), 1361u);
  ASSERT_EQ(util::crc32(bytes), 0x3424b19eu) << "fixture file changed";

  CheckpointReader reader(bytes);
  reader.verify_body_crc();
  EXPECT_EQ(reader.model(), "golden-net");
  EXPECT_EQ(reader.seed(), 2024u);
  EXPECT_EQ(reader.step(), 321);
  EXPECT_EQ(reader.samples_seen(), 41088);
  ASSERT_EQ(reader.num_streams(), 5u);

  struct Expect {
    const char* name;
    StreamKind kind;
    std::uint32_t crc;
  };
  const Expect expected[5] = {
      {"fc6.data", StreamKind::kFcData, 0xd6b6a7f3u},
      {"fc6.index", StreamKind::kFcIndex, 0x4dc15ab1u},
      {"fc6.bias", StreamKind::kFloats, 0x311fd8eeu},
      {"fc6.wvel", StreamKind::kFloats, 0xebcea3b2u},
      {"fc6.bvel", StreamKind::kFloats, 0xbaf465aeu},
  };
  for (std::size_t i = 0; i < 5; ++i) {
    auto s = reader.decode_stream(i);
    EXPECT_EQ(s.name, expected[i].name);
    EXPECT_EQ(s.kind, expected[i].kind);
    std::uint32_t crc = s.kind == StreamKind::kFcIndex ? util::crc32(s.bytes)
                                                       : float_crc(s.floats);
    EXPECT_EQ(crc, expected[i].crc) << "decode changed for " << s.name;
  }

  // The sz-coded weight stream must still honor its recorded bound against
  // the synthesized source values the generator encoded.
  auto data = reader.decode_stream("fc6.data");
  EXPECT_TRUE(data.masked);
  EXPECT_EQ(data.rows, 24);
  EXPECT_EQ(data.cols, 32);
  EXPECT_DOUBLE_EQ(data.eb, 1e-3);
  const auto fc6 = data::synthesize_pruned_layer("fc6", 24, 32, 0.25, 1001);
  ASSERT_EQ(data.floats.size(), fc6.data.size());
  for (std::size_t i = 0; i < fc6.data.size(); ++i) {
    EXPECT_LE(std::abs(data.floats[i] - fc6.data[i]), 1e-3 + 1e-9) << i;
  }

  // Lossless streams record a zero bound and decode bit-exactly.
  auto index = reader.decode_stream("fc6.index");
  EXPECT_EQ(index.bytes, fc6.index);
  EXPECT_DOUBLE_EQ(index.eb, 0.0);
}

TEST(GoldenCheckpoint, FixtureRoundTripsThroughTrainingState) {
  auto bytes = read_fixture("ckpt_v1.dszk");
  TrainingState state = read_checkpoint(bytes);
  EXPECT_EQ(state.model, "golden-net");
  ASSERT_EQ(state.streams.size(), 5u);
  const CheckpointStream* bias = state.find("fc6.bias");
  ASSERT_NE(bias, nullptr);
  ASSERT_EQ(bias->floats.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_FLOAT_EQ(bias->floats[i], 0.01f * static_cast<float>(i) - 0.05f);
  }
  EXPECT_EQ(state.find("nope"), nullptr);
}

}  // namespace
}  // namespace deepsz::train
