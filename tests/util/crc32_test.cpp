#include "util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "util/rng.h"

namespace deepsz::util {
namespace {

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32, MatchesKnownVectors) {
  // Standard CRC-32 (IEEE) reference values.
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

/// Byte-at-a-time CRC-32 over a 256-entry table: the definition the
/// slicing-by-8 implementation must reproduce.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..4096 starting at every offset 0..7 of one buffer, so every
  // split between the 8-byte body and the byte tail meets every alignment.
  const auto buf = random_bytes(4096 + 8, 1);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto s = std::span(buf).subspan(align, len);
      ASSERT_EQ(crc32(s), reference_crc32(s))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, ChainedSeedsMatchReferenceAndWholeBuffer) {
  const auto buf = random_bytes(3000, 2);
  Pcg32 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cut = rng.bounded(3001);
    const std::uint32_t seed = rng.next_u32();
    const auto head = std::span(buf).first(cut);
    const auto tail = std::span(buf).subspan(cut);
    ASSERT_EQ(crc32(tail, crc32(head, seed)),
              reference_crc32(tail, reference_crc32(head, seed)))
        << "cut " << cut;
    // Chaining from the head's CRC is the CRC of the whole buffer.
    ASSERT_EQ(crc32(tail, crc32(head)), crc32(buf)) << "cut " << cut;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(1024, 0xab);
  auto base = crc32(data);
  for (std::size_t i = 0; i < data.size(); i += 97) {
    data[i] ^= 0x01;
    EXPECT_NE(crc32(data), base) << "flip at " << i;
    data[i] ^= 0x01;
  }
}

TEST(Crc32, DifferentDataDifferentCrc) {
  EXPECT_NE(crc32(bytes_of("hello")), crc32(bytes_of("hellp")));
}

}  // namespace
}  // namespace deepsz::util
