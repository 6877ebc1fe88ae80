#include "util/bitstream.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace deepsz::util {
namespace {

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter bw;
  std::vector<std::uint32_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (auto b : bits) bw.write_bit(b);
  auto bytes = bw.finish();
  BitReader br(bytes);
  for (auto b : bits) EXPECT_EQ(br.read_bit(), b);
}

TEST(BitStream, MultiBitFieldsRoundTrip) {
  BitWriter bw;
  bw.write_bits(0x5, 3);
  bw.write_bits(0x1ff, 9);
  bw.write_bits(0, 1);
  bw.write_bits(0xdeadbeef, 32);
  bw.write_bits(0x1ffffffffffull, 41);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bits(3), 0x5u);
  EXPECT_EQ(br.read_bits(9), 0x1ffu);
  EXPECT_EQ(br.read_bits(1), 0u);
  EXPECT_EQ(br.read_bits(32), 0xdeadbeefull);
  EXPECT_EQ(br.read_bits(41), 0x1ffffffffffull);
}

TEST(BitStream, ZeroWidthWriteIsNoop) {
  BitWriter bw;
  bw.write_bits(123, 0);
  bw.write_bits(1, 1);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bits(0), 0u);
  EXPECT_EQ(br.read_bit(), 1u);
}

TEST(BitStream, ValueIsMaskedToWidth) {
  BitWriter bw;
  bw.write_bits(0xff, 4);  // only low 4 bits kept
  bw.write_bits(0x0, 4);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bits(4), 0xfu);
  EXPECT_EQ(br.read_bits(4), 0x0u);
}

TEST(BitStream, ReadPastEndReturnsZeros) {
  BitWriter bw;
  bw.write_bits(1, 1);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bit(), 1u);
  EXPECT_EQ(br.read_bits(7), 0u);   // padding
  EXPECT_EQ(br.read_bits(32), 0u);  // past end
}

TEST(BitStream, PeekDoesNotConsumeAndSkipMatchesRead) {
  // A 20-byte stream: long enough for whole-word refills, short enough
  // that peeks near the end reach past it.
  BitWriter bw;
  Pcg32 rng(5);
  for (int i = 0; i < 5; ++i) bw.write_bits(rng.next_u32(), 32);
  const auto bytes = bw.finish();
  for (int step = 1; step <= 57; ++step) {
    BitReader peeker(bytes), reader(bytes);
    while (!reader.exhausted()) {
      const auto peeked = peeker.peek_bits(step);
      EXPECT_EQ(peeker.peek_bits(step), peeked);  // peeking consumes nothing
      EXPECT_EQ(reader.read_bits(step), peeked) << "step " << step;
      peeker.skip_bits(step);
      EXPECT_EQ(peeker.bit_pos(), reader.bit_pos());
    }
  }
}

TEST(BitStream, SkipWithoutPeekAndPastEndReadsZero) {
  BitWriter bw;
  for (int i = 0; i < 4; ++i) bw.write_bits(0xffffffffu, 32);
  const auto bytes = bw.finish();  // 128 one bits
  BitReader br(bytes);
  br.skip_bits(57);  // no peek first: the skip itself must load the bits
  br.skip_bits(57);
  EXPECT_EQ(br.bit_pos(), 114u);
  EXPECT_EQ(br.peek_bits(20), 0x3fffu);  // 14 real one bits, then zeros
  br.skip_bits(20);
  EXPECT_EQ(br.bit_pos(), 134u);  // advances past the end like read_bits
  EXPECT_EQ(br.peek_bits(57), 0u);
  EXPECT_EQ(br.read_bits(40), 0u);
  EXPECT_EQ(br.bit_pos(), 174u);
}

TEST(BitStream, BitCountTracksWrites) {
  BitWriter bw;
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.write_bits(0, 5);
  EXPECT_EQ(bw.bit_count(), 5u);
  bw.write_bits(0, 11);
  EXPECT_EQ(bw.bit_count(), 16u);
}

TEST(BitStream, RandomizedRoundTrip) {
  Pcg32 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<std::uint64_t, int>> fields;
    BitWriter bw;
    for (int i = 0; i < 500; ++i) {
      int width = 1 + static_cast<int>(rng.bounded(57));
      std::uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);
      std::uint64_t v = rng.next_u64() & mask;
      fields.emplace_back(v, width);
      bw.write_bits(v, width);
    }
    auto bytes = bw.finish();
    BitReader br(bytes);
    for (auto [v, width] : fields) {
      ASSERT_EQ(br.read_bits(width), v);
    }
  }
}

}  // namespace
}  // namespace deepsz::util
