#include "lossless/entropy.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tests/heap_usage.h"
#include "util/rng.h"

namespace deepsz::lossless {
namespace {

std::vector<std::uint32_t> roundtrip(const std::vector<std::uint32_t>& symbols,
                                     std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (auto s : symbols) ++freq[s];
  HuffmanEncoder enc;
  enc.init(freq);
  util::BitWriter bw;
  enc.write_table(bw);
  for (auto s : symbols) enc.encode(bw, s);
  auto bytes = bw.finish();

  util::BitReader br(bytes);
  HuffmanDecoder dec;
  dec.read_table(br, alphabet);
  std::vector<std::uint32_t> out(symbols.size());
  for (auto& s : out) s = dec.decode(br);
  return out;
}

TEST(Huffman, RoundTripSmallAlphabet) {
  std::vector<std::uint32_t> symbols = {0, 1, 1, 2, 2, 2, 2, 3, 0, 1};
  EXPECT_EQ(roundtrip(symbols, 4), symbols);
}

TEST(Huffman, SingleSymbolStream) {
  std::vector<std::uint32_t> symbols(1000, 5);
  EXPECT_EQ(roundtrip(symbols, 16), symbols);
}

TEST(Huffman, TwoSymbolStream) {
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 500; ++i) symbols.push_back(i % 7 == 0 ? 1u : 0u);
  EXPECT_EQ(roundtrip(symbols, 2), symbols);
}

TEST(Huffman, LargeSparseAlphabet) {
  // Mimics SZ quantization codes: 65536-symbol alphabet, few present.
  util::Pcg32 rng(3);
  std::vector<std::uint32_t> symbols;
  const std::uint32_t center = 32768;
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(center + rng.bounded(33) - 16);
  }
  EXPECT_EQ(roundtrip(symbols, 65536), symbols);
}

TEST(Huffman, RandomAlphabetsAndSkews) {
  util::Pcg32 rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::size_t alphabet = 2 + rng.bounded(300);
    std::vector<std::uint32_t> symbols;
    for (int i = 0; i < 3000; ++i) {
      // Geometric-ish skew to stress unequal code lengths.
      std::uint32_t s = 0;
      while (s + 1 < alphabet && rng.uniform() < 0.4) ++s;
      symbols.push_back(s);
    }
    ASSERT_EQ(roundtrip(symbols, alphabet), symbols) << "trial " << trial;
  }
}

TEST(Huffman, CodeLengthsSatisfyKraft) {
  util::Pcg32 rng(23);
  std::vector<std::uint64_t> freq(512);
  for (auto& f : freq) f = rng.bounded(10000);
  auto lengths = build_code_lengths(freq, 12);
  double kraft = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      ASSERT_GT(lengths[s], 0);
      ASSERT_LE(lengths[s], 12);
      kraft += std::pow(2.0, -lengths[s]);
    } else {
      ASSERT_EQ(lengths[s], 0);
    }
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, LengthLimitingUnderExtremeSkew) {
  // freq_i = 2^i forces deep trees without limiting.
  std::vector<std::uint64_t> freq(40);
  std::uint64_t f = 1;
  for (auto& x : freq) {
    x = f;
    f = f < (1ull << 50) ? f * 2 : f;
  }
  auto lengths = build_code_lengths(freq, 15);
  for (auto l : lengths) EXPECT_LE(l, 15);
  // And the code must still round-trip.
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < 40; ++s) {
    for (int i = 0; i < 3; ++i) symbols.push_back(s);
  }
  HuffmanEncoder enc;
  enc.init(freq, 15);
  util::BitWriter bw;
  enc.write_table(bw);
  for (auto s : symbols) enc.encode(bw, s);
  auto bytes = bw.finish();
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  dec.read_table(br, freq.size());
  for (auto expected : symbols) {
    ASSERT_EQ(dec.decode(br), expected);
  }
}

TEST(Huffman, CompressionTracksEntropy) {
  // A heavily skewed stream must code well below 8 bits/symbol.
  std::vector<std::uint32_t> symbols;
  util::Pcg32 rng(31);
  for (int i = 0; i < 50000; ++i) {
    symbols.push_back(rng.uniform() < 0.95 ? 0u : 1u + rng.bounded(255));
  }
  std::vector<std::uint64_t> freq(256, 0);
  for (auto s : symbols) ++freq[s];
  HuffmanEncoder enc;
  enc.init(freq);
  util::BitWriter bw;
  for (auto s : symbols) enc.encode(bw, s);
  double bits_per_symbol =
      static_cast<double>(bw.bit_count()) / symbols.size();
  EXPECT_LT(bits_per_symbol, 1.5);  // entropy is ~0.7 bits here
}

/// A serialized code table: the declared alphabet, then (symbol, length)
/// pairs exactly as HuffmanEncoder::write_table lays them out.
std::vector<std::uint8_t> table_bytes(
    std::uint32_t alphabet,
    const std::vector<std::pair<std::uint32_t, int>>& codes) {
  const int sym_bits = alphabet <= 1 ? 1 : std::bit_width(alphabet - 1);
  util::BitWriter bw;
  bw.write_bits(alphabet, 32);
  bw.write_bits(codes.size(), 32);
  for (const auto& [sym, len] : codes) {
    bw.write_bits(sym, sym_bits);
    bw.write_bits(static_cast<std::uint64_t>(len), 5);
  }
  return bw.finish();
}

TEST(Huffman, ForgedAlphabetTableCostsNoHeap) {
  // 12 bytes declaring a 2^26-symbol alphabet with one present symbol: a
  // valid table, so it is accepted, but only the listed pair may cost
  // memory or time — never the declared alphabet.
  if (!testing::heap_in_use()) {
    GTEST_SKIP() << "mallinfo2 cannot measure this process's heap";
  }
  const auto bytes = table_bytes(1u << 26, {{12345, 20}});
  ASSERT_EQ(bytes.size(), 12u);
  const std::size_t before = *testing::heap_in_use();
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  dec.read_table(br, std::size_t{1} << 26);
  const std::size_t after = *testing::heap_in_use();
  EXPECT_EQ(dec.alphabet_size(), std::size_t{1} << 26);
  const std::size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, std::size_t{1} << 20) << "heap grew " << grown << " bytes";

  // The lone symbol owns the all-zero 20-bit code.
  const std::vector<std::uint8_t> zeros(3, 0);
  util::BitReader code(zeros);
  EXPECT_EQ(dec.decode(code), 12345u);
}

TEST(Huffman, TableWithMoreCodesThanSymbolsRejected) {
  const auto bytes = table_bytes(4, {{0, 2}, {1, 2}, {2, 2}, {3, 3}, {3, 3}});
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  EXPECT_THROW(dec.read_table(br, 4), std::runtime_error);
}

TEST(Huffman, TableBeyondCallerAlphabetRejected) {
  // A well-formed table is still rejected when its declared alphabet exceeds
  // the caller's symbol range — before any code is read or built.
  const auto bytes = table_bytes(257, {{0, 1}, {256, 1}});
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  EXPECT_THROW(dec.read_table(br, 256), std::runtime_error);
  util::BitReader again(bytes);
  EXPECT_NO_THROW(dec.read_table(again, 257));
  EXPECT_THROW(huffman_decode_symbols(bytes, 1, 256), std::runtime_error);
}

TEST(Huffman, TableWithRepeatedSymbolRejected) {
  const auto bytes = table_bytes(8, {{1, 2}, {5, 2}, {1, 3}});
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  EXPECT_THROW(dec.read_table(br, 8), std::runtime_error);
}

TEST(Huffman, ReverseBits) {
  EXPECT_EQ(reverse_bits(0b1, 1), 0b1u);
  EXPECT_EQ(reverse_bits(0b10, 2), 0b01u);
  EXPECT_EQ(reverse_bits(0b1101, 4), 0b1011u);
  EXPECT_EQ(reverse_bits(0x1, 8), 0x80u);
}

}  // namespace
}  // namespace deepsz::lossless
