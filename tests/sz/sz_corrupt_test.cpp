// Regression tests for the hardened stream parsers: truncated or corrupt
// input must throw std::runtime_error — never read past the buffer, crash,
// or surface an allocation failure from an attacker-sized header field.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "lossless/codec.h"
#include "lossless/entropy.h"
#include "sz/sz.h"
#include "tests/golden_fixture.h"
#include "tests/heap_usage.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace deepsz {
namespace {

std::vector<float> weight_like(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) {
    v = static_cast<float>(0.05 * (rng.uniform() * 2.0 - 1.0));
  }
  return out;
}

std::vector<std::uint8_t> prefix(std::span<const std::uint8_t> s,
                                 std::size_t n) {
  return std::vector<std::uint8_t>(s.begin(), s.begin() + n);
}

// The checked-in v1 stream is store-framed (4 B magic + 9 B store frame +
// payload); no current encoder writes v1, so the frozen parser is tested on
// it.
std::vector<std::uint8_t> v1_stream() {
  return testing::read_fixture("sz_v1.szs");
}

std::vector<std::uint8_t> v2_stream(std::size_t n, std::uint64_t seed,
                                    std::uint32_t chunk_size) {
  sz::SzParams params;
  params.backend = lossless::CodecId::kStore;
  params.chunk_size = chunk_size;
  return sz::compress(weight_like(n, seed), params);
}

TEST(SzCorrupt, EveryTruncatedPrefixThrowsRuntimeError) {
  // A store backend makes truncation detection exact at every length: all
  // declared section lengths are bounds-checked against what is present.
  // Both wire formats must hold the guarantee; the v2 stream's 1024-float
  // chunks give it several chunks over 3000 values.
  for (const auto& stream : {v1_stream(), v2_stream(3000, 1, 1024)}) {
    ASSERT_FALSE(stream.empty());
    for (std::size_t n = 0; n < stream.size(); ++n) {
      EXPECT_THROW(sz::decompress(prefix(stream, n)), std::runtime_error)
          << "v" << sz::inspect(stream).stream_version << " prefix " << n
          << "/" << stream.size();
    }
  }
}

TEST(SzCorrupt, TruncatedHeaderPrefixesThrowOnInspect) {
  for (const auto& stream :
       {v1_stream(), v2_stream(500, 2, sz::SzParams{}.chunk_size)}) {
    ASSERT_FALSE(stream.empty());
    for (std::size_t n = 0; n < std::min<std::size_t>(stream.size(), 64);
         ++n) {
      EXPECT_THROW(sz::inspect(prefix(stream, n)), std::runtime_error)
          << "v" << sz::inspect(stream).stream_version << " prefix " << n;
    }
  }
}

TEST(SzCorrupt, CompressedBackendPrefixesNeverEscapeRuntimeError) {
  // With an entropy-coded backend some truncations are indistinguishable
  // from short valid payloads until deeper checks fire; the guarantee under
  // test is "std::runtime_error or clean success", never any other escape.
  auto stream = sz::compress(weight_like(3000, 3), sz::SzParams{});
  for (std::size_t n = 0; n < stream.size(); ++n) {
    try {
      sz::decompress(prefix(stream, n));
    } catch (const std::runtime_error&) {
      // expected for essentially every prefix
    }
  }
}

// Patches a fixed-header field of the store-backed v1 fixture. Payload
// layout after the 13-byte outer frame (magic u32 + frame id u8 +
// raw_size u64): version u32, count u64, eb f64, bins u32, block u32,
// predictor u8, unpredictable u64, n_blocks u64. The v2 header-corruption
// suite lives in sz_v2_corrupt_test.cpp.
template <typename T>
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> stream,
                                  std::size_t payload_offset, T value) {
  std::memcpy(stream.data() + 13 + payload_offset, &value, sizeof(T));
  return stream;
}

class SzHeaderCorrupt : public ::testing::Test {
 protected:
  void SetUp() override {
    stream_ = v1_stream();
    ASSERT_EQ(stream_.size(), 3497u);
  }
  std::vector<std::uint8_t> stream_;
};

TEST_F(SzHeaderCorrupt, ImplausibleCountRejectedBeforeAllocation) {
  auto bad = patched<std::uint64_t>(stream_, 4, 1ull << 62);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
  EXPECT_THROW(sz::inspect(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, UnpredictableCountBeyondCountRejected) {
  auto bad = patched<std::uint64_t>(stream_, 29, 1ull << 60);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, BlockCountMismatchRejected) {
  auto bad = patched<std::uint64_t>(stream_, 37, 9999);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, TinyBlockSizeRejected) {
  auto bad = patched<std::uint32_t>(stream_, 24, 0);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, NonFiniteErrorBoundRejected) {
  auto bad = patched<double>(stream_, 12, -1.0);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, WrappingSectionLengthRejected) {
  // Regression: section lengths near 2^64 (here the predictor-kinds length
  // at payload offset 45) used to wrap ByteReader's `pos + n` bounds check
  // and read far past the buffer.
  for (std::uint64_t evil :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 1, std::uint64_t{1} << 63}) {
    auto bad = patched<std::uint64_t>(stream_, 45, evil);
    EXPECT_THROW(sz::decompress(bad), std::runtime_error) << evil;
  }
}

TEST(SzCorrupt, V1CountBeyondSymbolBitsRejectedWithoutInflating) {
  // A hand-built store-framed v1 stream declaring 2^24 floats in one block,
  // with a one-symbol Huffman table and no code bits. Reads past the end
  // yield zero bits, which decode as that symbol forever, so only the
  // payload-derived bound (at least one bit per symbol) stops it: before
  // that bound it decoded to 16 Mi floats.
  if (!testing::heap_in_use()) {
    GTEST_SKIP() << "mallinfo2 cannot measure this process's heap";
  }
  constexpr std::uint32_t kBins = 1024;
  constexpr std::uint64_t kCount = std::uint64_t{1} << 24;
  std::vector<std::uint64_t> freq(kBins, 0);
  freq[kBins / 2] = 1;
  lossless::HuffmanEncoder enc;
  enc.init(freq);
  util::BitWriter bw;
  enc.write_table(bw);
  const auto table = bw.finish();

  std::vector<std::uint8_t> payload;
  util::put_le<std::uint32_t>(payload, 1);       // version
  util::put_le<std::uint64_t>(payload, kCount);  // count
  util::put_le<double>(payload, 1e-3);           // error bound
  util::put_le<std::uint32_t>(payload, kBins);   // quant_bins
  util::put_le<std::uint32_t>(payload, static_cast<std::uint32_t>(kCount));
  util::put_le<std::uint8_t>(payload, 0);        // predictor mode
  util::put_le<std::uint64_t>(payload, 0);       // unpredictable
  util::put_le<std::uint64_t>(payload, 1);       // n_blocks
  util::put_le<std::uint64_t>(payload, 1);       // kinds length
  util::put_le<std::uint8_t>(payload, 0);        // one Lorenzo-1 block
  util::put_le<std::uint64_t>(payload, 0);       // n_fits
  util::put_le<std::uint64_t>(payload, table.size());
  payload.insert(payload.end(), table.begin(), table.end());
  std::vector<std::uint8_t> stream;
  util::put_le<std::uint32_t>(stream, 0x575a5344);  // "DSZW"
  const auto frame = lossless::compress(lossless::CodecId::kStore, payload);
  stream.insert(stream.end(), frame.begin(), frame.end());
  ASSERT_EQ(sz::inspect(stream).count, kCount);

  const std::size_t before = *testing::heap_in_use();
  std::vector<float> decoded;
  EXPECT_THROW(decoded = sz::decompress(stream), std::runtime_error);
  const std::size_t after = *testing::heap_in_use();
  const std::size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, std::size_t{1} << 20) << "heap grew " << grown << " bytes";
}

TEST(LosslessCorrupt, EveryTruncatedStoreFramePrefixThrows) {
  // Store frames make the check exact: any missing byte is a size mismatch.
  util::Pcg32 rng(7);
  std::vector<std::uint8_t> data(1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bounded(256));
  auto frame = lossless::compress(lossless::CodecId::kStore, data);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_THROW(lossless::decompress(prefix(frame, n)), std::runtime_error)
        << "prefix " << n;
  }
}

TEST(LosslessCorrupt, TruncatedCompressedFramePrefixesNeverEscape) {
  // Entropy-coded payloads may remain decodable for a few tail truncations
  // (bit padding); the guarantee is that nothing but std::runtime_error ever
  // escapes, and the 9-byte frame header is always fully validated.
  util::Pcg32 rng(8);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bounded(64));
  for (auto id : {lossless::CodecId::kGzipLike, lossless::CodecId::kZstdLike,
                  lossless::CodecId::kBloscLike}) {
    auto frame = lossless::compress(id, data);
    for (std::size_t n = 0; n < frame.size(); ++n) {
      try {
        lossless::decompress(prefix(frame, n));
        EXPECT_GE(n, 9u) << "frame header not validated, codec "
                         << lossless::codec_name(id);
      } catch (const std::runtime_error&) {
        // required failure mode: runtime_error, not out_of_range/bad_alloc
      }
    }
  }
}

TEST(LosslessCorrupt, ImplausibleRawSizeRejected) {
  std::vector<std::uint8_t> frame;
  util::put_le<std::uint8_t>(frame, 2);  // zstd id
  util::put_le<std::uint64_t>(frame, ~0ull);
  frame.push_back(0x00);
  EXPECT_THROW(lossless::decompress(frame), std::runtime_error);
}

TEST(LosslessCorrupt, UnknownCodecIdRejected) {
  std::vector<std::uint8_t> frame;
  util::put_le<std::uint8_t>(frame, 42);
  util::put_le<std::uint64_t>(frame, 0);
  EXPECT_THROW(lossless::decompress(frame), std::runtime_error);
}

}  // namespace
}  // namespace deepsz
