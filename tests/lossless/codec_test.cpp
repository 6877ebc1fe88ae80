#include "lossless/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitstream.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace deepsz::lossless {
namespace {

std::vector<std::uint8_t> make_text_like(std::size_t n, std::uint64_t seed) {
  // Repetitive structured data: compresses with all codecs.
  util::Pcg32 rng(seed);
  const std::string words[] = {"weight", "layer", "index", "sparse", "prune"};
  std::vector<std::uint8_t> out;
  while (out.size() < n) {
    const auto& w = words[rng.bounded(5)];
    out.insert(out.end(), w.begin(), w.end());
    out.push_back(' ');
  }
  out.resize(n);
  return out;
}

std::vector<std::uint8_t> make_index_like(std::size_t n, std::uint64_t seed) {
  // Mimics the paper's index arrays: small deltas concentrated around a mode.
  util::Pcg32 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    double u = rng.uniform();
    if (u < 0.8) {
      b = static_cast<std::uint8_t>(8 + rng.bounded(8));
    } else if (u < 0.99) {
      b = static_cast<std::uint8_t>(1 + rng.bounded(64));
    } else {
      b = 255;
    }
  }
  return out;
}

std::vector<std::uint8_t> make_random(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

class CodecRoundTrip : public ::testing::TestWithParam<CodecId> {};

TEST_P(CodecRoundTrip, TextLike) {
  auto data = make_text_like(100000, 1);
  auto frame = compress(GetParam(), data);
  EXPECT_EQ(decompress(frame), data);
  if (GetParam() != CodecId::kStore) {
    EXPECT_LT(frame.size(), data.size());  // must actually compress
  }
}

TEST_P(CodecRoundTrip, IndexArrayLike) {
  auto data = make_index_like(200000, 2);
  auto frame = compress(GetParam(), data);
  EXPECT_EQ(decompress(frame), data);
}

TEST_P(CodecRoundTrip, IncompressibleFallsBackSafely) {
  auto data = make_random(50000, 3);
  auto frame = compress(GetParam(), data);
  EXPECT_EQ(decompress(frame), data);
  // Frame overhead must stay tiny even when storing raw.
  EXPECT_LE(frame.size(), data.size() + 16);
}

TEST_P(CodecRoundTrip, EmptyInput) {
  std::vector<std::uint8_t> data;
  auto frame = compress(GetParam(), data);
  EXPECT_TRUE(decompress(frame).empty());
}

TEST_P(CodecRoundTrip, SingleByte) {
  std::vector<std::uint8_t> data = {42};
  auto frame = compress(GetParam(), data);
  EXPECT_EQ(decompress(frame), data);
}

TEST_P(CodecRoundTrip, AllZeros) {
  std::vector<std::uint8_t> data(65536, 0);
  auto frame = compress(GetParam(), data);
  EXPECT_EQ(decompress(frame), data);
  if (GetParam() != CodecId::kStore) {
    EXPECT_LT(frame.size(), data.size() / 20);  // trivially compressible
  }
}

TEST_P(CodecRoundTrip, RunsAndPeriodicPatterns) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 3000; ++i) data.push_back(static_cast<std::uint8_t>(i % 17));
  for (int i = 0; i < 3000; ++i) data.push_back(7);
  for (int i = 0; i < 3000; ++i) data.push_back(static_cast<std::uint8_t>(i % 251));
  auto frame = compress(GetParam(), data);
  EXPECT_EQ(decompress(frame), data);
}

TEST_P(CodecRoundTrip, SizesFromTinyToLarge) {
  for (std::size_t n : {2u, 3u, 15u, 255u, 4096u, 1000000u}) {
    auto data = make_text_like(n, n);
    auto frame = compress(GetParam(), data);
    ASSERT_EQ(decompress(frame), data) << "size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values(CodecId::kStore, CodecId::kGzipLike,
                                           CodecId::kZstdLike,
                                           CodecId::kBloscLike),
                         [](const auto& info) {
                           return codec_name(info.param);
                         });

TEST(Codec, ZstdBeatsGzipOnIndexArrays) {
  // The ordering the paper's Figure 4 reports.
  auto data = make_index_like(500000, 11);
  auto gz = compress(CodecId::kGzipLike, data);
  auto zs = compress(CodecId::kZstdLike, data);
  EXPECT_LT(zs.size(), data.size());
  EXPECT_LE(zs.size(), gz.size() * 1.05);  // zstd-class >= gzip-class (±5%)
}

TEST(Codec, CorruptFrameThrows) {
  auto data = make_text_like(10000, 5);
  auto frame = compress(CodecId::kGzipLike, data);
  frame[0] = 0x7f;  // bogus codec id
  EXPECT_THROW(decompress(frame), std::runtime_error);
}

TEST(Codec, TruncatedFrameThrows) {
  auto data = make_text_like(10000, 6);
  auto frame = compress(CodecId::kZstdLike, data);
  frame.resize(frame.size() / 2);
  EXPECT_ANY_THROW(decompress(frame));
}

TEST(ZstdLike, ForgedSequenceBucket32Rejected) {
  // The sequence tables declare 33 buckets, but no u32 value falls in
  // bucket 32 (whose base 2^32 - 1 the decoder cannot even compute). A
  // hand-built payload whose literal-length table codes only bucket 32, as
  // the 1-bit code "0", must throw cleanly before the bucket is used.
  util::BitWriter bw;
  bw.write_bits(1, 32);  // one sequence
  bw.write_bits(0, 32);  // no literals
  auto table = [&bw](std::uint32_t alphabet, std::uint32_t sym, int sym_bits) {
    bw.write_bits(alphabet, 32);
    bw.write_bits(1, 32);  // one present symbol
    bw.write_bits(sym, sym_bits);
    bw.write_bits(1, 5);  // code length 1
  };
  table(256, 0, 8);  // literals
  table(33, 32, 6);  // literal lengths: bucket 32 only
  table(33, 0, 6);   // match lengths
  table(33, 0, 6);   // offsets
  bw.write_bits(0, 8);
  const auto payload = bw.finish();
  try {
    raw::zstd_like_decompress(payload, 100);
    ADD_FAILURE() << "forged bucket 32 decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "zstd_like: corrupt sequence bucket");
  }
}

TEST(Codec, BloscHugeDeclaredLiteralLengthThrows) {
  // An lz4ish block declaring ~255 KB of literals it does not carry. The
  // decoder must reject it via the wrap-proof `lit_len > remaining` shape;
  // the old `pos + lit_len > in.size()` comparison could wrap where size_t
  // is 32 bits and read out of bounds.
  std::vector<std::uint8_t> block;
  block.push_back(0xF0);  // literal-length nibble 15: extended bytes follow
  for (int i = 0; i < 1000; ++i) block.push_back(255);
  block.push_back(200);  // lit_len = 15 + 255*1000 + 200, no literals present

  std::vector<std::uint8_t> payload;
  util::put_le<std::uint32_t>(payload, 1);     // typesize (no shuffle)
  util::put_le<std::uint64_t>(payload, 4096);  // block size
  util::put_le<std::uint64_t>(payload, 1);     // n_blocks
  util::put_le<std::uint64_t>(payload, block.size());
  util::put_bytes(payload, block);
  EXPECT_THROW(raw::blosc_like_decompress(payload, 4096), std::runtime_error);
}

TEST(Codec, BloscTypesizeVariants) {
  // Float-like data: shuffling by 4 should help.
  util::Pcg32 rng(8);
  std::vector<float> floats(50000);
  float v = 0.0f;
  for (auto& f : floats) {
    v += static_cast<float>(rng.uniform() - 0.5) * 0.01f;
    f = v;
  }
  std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(floats.data()),
      floats.size() * sizeof(float)};
  for (std::uint32_t typesize : {1u, 2u, 4u, 8u}) {
    BloscOptions opts;
    opts.typesize = typesize;
    auto frame = compress_blosc(bytes, opts);
    auto back = decompress(frame);
    ASSERT_EQ(back.size(), bytes.size());
    ASSERT_TRUE(std::equal(back.begin(), back.end(), bytes.begin()));
  }
}

TEST(Codec, NamesAreStable) {
  EXPECT_EQ(codec_name(CodecId::kGzipLike), "gzip");
  EXPECT_EQ(codec_name(CodecId::kZstdLike), "zstd");
  EXPECT_EQ(codec_name(CodecId::kBloscLike), "blosc");
  EXPECT_EQ(all_codecs().size(), 3u);
}

}  // namespace
}  // namespace deepsz::lossless
