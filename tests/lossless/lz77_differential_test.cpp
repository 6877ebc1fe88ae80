// Differential test of lossless::MatchFinder against the hash-chain finder it
// replaced (tests/lossless/reference_match_finder.h): for every query
// position, under both codec profiles, the bucketed index must return the
// same match as a chain that has seen exactly the earlier positions. Equal
// matches mean equal parses, so every LZ77 codec's output stays
// byte-identical; the CRC pins below check that end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "lossless/codec.h"
#include "lossless/lz77.h"
#include "tests/lossless/reference_match_finder.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace deepsz::lossless {
namespace {

struct Profile {
  const char* name;
  Lz77Params params;
};
const Profile kProfiles[] = {{"gzip", kGzipLz77}, {"zstd", kZstdLz77}};

/// DeepSZ-style index bytes: the gaps between kept weights when each dense
/// position is kept with probability `density`; a gap reaching 255 is
/// emitted as a 255 filler step.
std::vector<std::uint8_t> index_bytes(std::size_t n, double density,
                                      std::uint64_t seed) {
  util::Pcg32 rng(seed);
  const auto threshold = static_cast<std::uint32_t>(density * 4294967296.0);
  std::vector<std::uint8_t> out;
  out.reserve(n);
  std::uint32_t gap = 0;
  while (out.size() < n) {
    ++gap;
    if (rng.next_u32() < threshold || gap == 255) {
      out.push_back(static_cast<std::uint8_t>(gap));
      gap = 0;
    }
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

/// Checks find(q) for q in [0, size + 1] — every `stride`-th q, and every q
/// in the last 8 — against the reference chain after inserting 0..q-1.
/// Stops at the first mismatch.
void expect_same_matches(std::span<const std::uint8_t> data,
                         std::size_t stride = 1) {
  for (const Profile& profile : kProfiles) {
    SCOPED_TRACE(profile.name);
    const MatchFinder finder(data, profile.params);
    testing::ChainMatchFinder reference(data, profile.params);
    for (std::size_t q = 0; q <= data.size() + 1; ++q) {
      if (q % stride == 0 || q + 8 > data.size()) {
        const Match want = reference.find(q);
        const Match got = finder.find(q);
        if (got.length != want.length || got.distance != want.distance) {
          ADD_FAILURE() << "size " << data.size() << ", find(" << q
                        << "): got (" << got.length << ", " << got.distance
                        << "), want (" << want.length << ", "
                        << want.distance << ")";
          return;
        }
      }
      if (q < data.size()) reference.insert(q);
    }
  }
}

TEST(Lz77Differential, IndexBytesAtPaperDensities) {
  for (double density : {0.03, 0.09, 0.25}) {
    SCOPED_TRACE(density);
    expect_same_matches(index_bytes(96 * 1024, density, 11));
  }
}

TEST(Lz77Differential, UniformRandomBytes) {
  expect_same_matches(random_bytes(64 * 1024, 12));
}

TEST(Lz77Differential, LongRunsHitNiceLength) {
  // Runs longer than either nice_length, separated by short random stretches
  // so that the chains also hold hash collisions.
  std::vector<std::uint8_t> data;
  util::Pcg32 rng(13);
  for (int r = 0; r < 6; ++r) {
    data.insert(data.end(), 700 + 100 * r, static_cast<std::uint8_t>(r % 3));
    for (int i = 0; i < 50; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.next_u32()));
    }
  }
  expect_same_matches(data);
}

TEST(Lz77Differential, PeriodicData) {
  for (std::size_t period : {1u, 2u, 3u, 7u, 64u, 251u}) {
    SCOPED_TRACE(period);
    const auto unit = random_bytes(period, 14 + period);
    std::vector<std::uint8_t> data;
    while (data.size() < 3000) data.insert(data.end(), unit.begin(), unit.end());
    expect_same_matches(data);
  }
}

TEST(Lz77Differential, MatchesCappedAtMaxMatch) {
  // A repeat longer than zstd's 64 KiB max_match. Comparing every query
  // against the byte-serial reference would be quadratic here, so every
  // 97th position (and each of the last 8) is checked.
  auto data = random_bytes(70 * 1024, 15);
  data.insert(data.end(), data.begin(), data.end());
  expect_same_matches(data, /*stride=*/97);
  const MatchFinder finder(data, kZstdLz77);
  const Match m = finder.find(70 * 1024);
  EXPECT_EQ(m.length, static_cast<std::uint32_t>(kZstdLz77.max_match));
  EXPECT_EQ(m.distance, 70u * 1024u);
}

TEST(Lz77Differential, TinyInputs) {
  for (std::size_t size = 0; size <= 5; ++size) {
    SCOPED_TRACE(size);
    expect_same_matches(std::vector<std::uint8_t>(size, 'a'));
    std::vector<std::uint8_t> distinct(size);
    for (std::size_t i = 0; i < size; ++i) {
      distinct[i] = static_cast<std::uint8_t>('a' + i % 2);
    }
    expect_same_matches(distinct);
  }
}

TEST(Lz77Differential, InputsLongerThanTheWindow) {
  // gzip's 32 KiB window, with a repeat just inside and just outside it.
  auto small = random_bytes(80 * 1024, 16);
  std::copy_n(small.begin() + 1000, 300, small.begin() + 1000 + 32768 - 5);
  std::copy_n(small.begin() + 2000, 300, small.begin() + 2000 + 32768 + 5);
  expect_same_matches(small);
  // zstd's 1 MiB window, the same way.
  auto large = random_bytes((1u << 20) + 64 * 1024, 17);
  std::copy_n(large.begin() + 1000, 300, large.begin() + 1000 + (1u << 20) - 5);
  std::copy_n(large.begin() + 2000, 300, large.begin() + 2000 + (1u << 20) + 5);
  expect_same_matches(large);
}

TEST(Lz77Differential, TailPositionMatchesThroughHashCollision) {
  // A position within 4 bytes of the end is not indexed and hashes only the
  // bytes left, so its candidates are the positions whose 4-byte hash
  // collides with that shorter hash. Search for bytes "xyzw" hashing like
  // the 3-byte "xyz", and end the input with "xyz": gzip's min_match of 3
  // then finds a real match at the third-last position.
  auto hash = [](std::uint32_t v) { return (v * 2654435761u) >> 16; };
  std::vector<std::uint8_t> data;
  for (std::uint32_t xyz = 1; data.empty(); ++xyz) {
    for (std::uint32_t w = 0; w < 256; ++w) {
      if (hash((xyz << 8) | w) != hash(xyz)) continue;
      const std::vector<std::uint8_t> head = {
          static_cast<std::uint8_t>(xyz >> 16),
          static_cast<std::uint8_t>(xyz >> 8), static_cast<std::uint8_t>(xyz)};
      data = head;
      data.push_back(static_cast<std::uint8_t>(w));
      data.insert(data.end(), 9, '-');
      data.insert(data.end(), head.begin(), head.end());
      break;
    }
  }
  expect_same_matches(data);
  const MatchFinder finder(data, kGzipLz77);
  const Match m = finder.find(data.size() - 3);
  EXPECT_EQ(m.length, 3u);
  EXPECT_EQ(m.distance, data.size() - 3);
}

TEST(Lz77Differential, EncodesMatchPinnedCrcs) {
  // CRC-32 of each codec's frame over one seeded index stream, recorded
  // from the hash-chain finder: any change in a parse moves them.
  const auto data = index_bytes(200 * 1024, 0.09, 7);
  EXPECT_EQ(util::crc32(compress(CodecId::kZstdLike, data)), 0x2639a2c4u);
  EXPECT_EQ(util::crc32(compress(CodecId::kGzipLike, data)), 0x07584c0cu);
}

}  // namespace
}  // namespace deepsz::lossless
