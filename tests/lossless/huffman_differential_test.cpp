// Differential test of the table-driven lossless::HuffmanDecoder against the
// bit-serial reference it replaced
// (tests/lossless/reference_huffman_decoder.h). Both decoders read the same
// bytes; they must return the same symbols and leave the reader at the same
// bit_pos() after every symbol, or fail with the same error. Inputs: random
// tables over alphabets 1..2^16, a sparse table near the 2^26 alphabet
// ceiling, codes of 12..24 bits (past the lookup table), incomplete and
// over-subscribed codes, streams truncated at every byte, and the Huffman
// sections of the SZ v1/v2 golden streams and of zstd- and gzip-class
// payloads, clean and mutated.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lossless/codec.h"
#include "lossless/entropy.h"
#include "sz/sz.h"
#include "tests/golden_fixture.h"
#include "tests/lossless/reference_huffman_decoder.h"
#include "util/bitstream.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace deepsz::lossless {
namespace {

using Reference = testing::BitSerialHuffmanDecoder;
using Pairs = std::vector<std::pair<std::uint32_t, int>>;

/// What one decoder made of a stream: the decoded symbols, bit_pos() after
/// the table and after every symbol (or symbol array), and the message of
/// the error that stopped it (empty if none did).
struct Trace {
  std::vector<std::uint32_t> symbols;
  std::vector<std::size_t> bit_pos;
  std::string error;
};

void decode_array(const HuffmanDecoder& dec, util::BitReader& br,
                  std::span<std::uint32_t> out) {
  dec.decode(br, out);
}

void decode_array(const Reference& dec, util::BitReader& br,
                  std::span<std::uint32_t> out) {
  for (auto& s : out) s = dec.decode(br);
}

/// [table][codes] framing (huffman_decode_symbols, the SZ symbol sections):
/// `count` symbols, one decode() call each.
template <typename Dec>
Trace decode_each(std::span<const std::uint8_t> bytes, std::size_t count,
                  std::size_t max_alphabet) {
  Trace t;
  try {
    util::BitReader br(bytes);
    Dec dec;
    dec.read_table(br, max_alphabet);
    t.bit_pos.push_back(br.bit_pos());
    for (std::size_t i = 0; i < count; ++i) {
      t.symbols.push_back(dec.decode(br));
      t.bit_pos.push_back(br.bit_pos());
    }
  } catch (const std::runtime_error& e) {
    t.error = e.what();
  }
  return t;
}

/// The same framing through one whole-array decode call.
Trace decode_whole(std::span<const std::uint8_t> bytes, std::size_t count,
                   std::size_t max_alphabet) {
  Trace t;
  try {
    util::BitReader br(bytes);
    HuffmanDecoder dec;
    dec.read_table(br, max_alphabet);
    t.bit_pos.push_back(br.bit_pos());
    std::vector<std::uint32_t> out(count);
    dec.decode(br, out);
    t.symbols = std::move(out);
    t.bit_pos.push_back(br.bit_pos());
  } catch (const std::runtime_error& e) {
    t.error = e.what();
  }
  return t;
}

void expect_same_trace(const Trace& got, const Trace& want,
                       const std::string& what) {
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.symbols, want.symbols) << what;
  EXPECT_EQ(got.bit_pos, want.bit_pos) << what;
}

/// Checks both decoders on one [table][codes] stream: symbol by symbol, and
/// the whole-array decode against the reference's totals. The reference
/// reads the stream followed by real zero bytes, enough that it never reads
/// past the end, so a reader whose bits past the end are not zero fails
/// here even though both decoders share it.
void expect_same(std::span<const std::uint8_t> bytes, std::size_t count,
                 std::size_t max_alphabet, const std::string& what) {
  std::vector<std::uint8_t> padded(bytes.begin(), bytes.end());
  padded.resize(padded.size() + 16 + count * kMaxCodeLen / 8, 0);
  const Trace want = decode_each<Reference>(padded, count, max_alphabet);
  expect_same_trace(decode_each<HuffmanDecoder>(bytes, count, max_alphabet),
                    want, what + " (per symbol)");
  const Trace whole = decode_whole(bytes, count, max_alphabet);
  EXPECT_EQ(whole.error, want.error) << what << " (whole array)";
  if (want.error.empty()) {
    EXPECT_EQ(whole.symbols, want.symbols) << what << " (whole array)";
    EXPECT_EQ(whole.bit_pos, (std::vector<std::size_t>{
                                 want.bit_pos.front(), want.bit_pos.back()}))
        << what << " (whole array)";
  }
}

/// Writes a code table exactly as HuffmanEncoder::write_table lays it out.
void put_table(util::BitWriter& bw, std::uint32_t alphabet,
               const Pairs& codes) {
  const int sym_bits = alphabet <= 1 ? 1 : std::bit_width(alphabet - 1);
  bw.write_bits(alphabet, 32);
  bw.write_bits(codes.size(), 32);
  for (const auto& [sym, len] : codes) {
    bw.write_bits(sym, sym_bits);
    bw.write_bits(static_cast<std::uint64_t>(len), 5);
  }
}

/// A code table followed by `code_words` random 32-bit words of code bits.
std::vector<std::uint8_t> table_stream(std::uint32_t alphabet,
                                       const Pairs& codes,
                                       util::Pcg32& rng, int code_words) {
  util::BitWriter bw;
  put_table(bw, alphabet, codes);
  for (int i = 0; i < code_words; ++i) bw.write_bits(rng.next_u32(), 32);
  return bw.finish();
}

/// `n` distinct symbols below `alphabet`, in random order.
std::vector<std::uint32_t> distinct_symbols(util::Pcg32& rng,
                                            std::uint32_t alphabet,
                                            std::size_t n) {
  std::set<std::uint32_t> seen;
  std::vector<std::uint32_t> out;
  while (out.size() < n) {
    const std::uint32_t s = rng.bounded(alphabet);
    if (seen.insert(s).second) out.push_back(s);
  }
  return out;
}

/// Huffman code lengths for `symbols` under random, heavily skewed
/// frequencies, limited to `max_len` bits.
Pairs random_code(util::Pcg32& rng, const std::vector<std::uint32_t>& symbols,
                  int max_len) {
  std::vector<std::uint64_t> freq(symbols.size());
  for (auto& f : freq) f = 1 + rng.bounded(1u << rng.bounded(20));
  const auto lengths = build_code_lengths(freq, max_len);
  Pairs codes;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    codes.emplace_back(symbols[i], lengths[i]);
  }
  return codes;
}

TEST(HuffmanDifferential, RandomTablesAndStreams) {
  util::Pcg32 rng(2024);
  for (int trial = 0; trial < 150; ++trial) {
    const std::uint32_t alphabet =
        1 + rng.bounded(1u << (1 + rng.bounded(16)));
    const std::size_t present =
        1 + rng.bounded(std::min<std::uint32_t>(alphabet, 600));
    const int max_len = rng.bounded(2) ? 15 : kMaxCodeLen;
    const auto symbols = distinct_symbols(rng, alphabet, present);
    const Pairs codes = random_code(rng, symbols, max_len);
    const std::string what = "trial " + std::to_string(trial) + " alphabet " +
                             std::to_string(alphabet);

    // Random code bits, decoded past the end of the stream too.
    const auto bytes = table_stream(alphabet, codes, rng, 24);
    expect_same(bytes, 400, alphabet, what);

    // A valid stream from the encoder, under the real framing.
    std::vector<std::uint32_t> stream(1 + rng.bounded(2000));
    for (auto& s : stream) {
      std::uint32_t i = 0;
      while (i + 1 < symbols.size() && rng.uniform() < 0.6) ++i;
      s = symbols[i];
    }
    const auto valid = huffman_encode_symbols(stream, alphabet);
    expect_same(valid, stream.size(), alphabet, what + " valid");
    EXPECT_EQ(huffman_decode_symbols(valid, stream.size(), alphabet), stream)
        << what;
  }
}

TEST(HuffmanDifferential, SparseTableNearAlphabetCeiling) {
  util::Pcg32 rng(26);
  const std::uint32_t alphabet = 1u << 26;
  auto symbols = distinct_symbols(rng, alphabet - 2, 300);
  symbols.push_back(alphabet - 1);  // the largest symbol the packing holds
  symbols.push_back(alphabet - 2);
  for (int trial = 0; trial < 6; ++trial) {
    const Pairs codes = random_code(rng, symbols, kMaxCodeLen);
    const auto bytes = table_stream(alphabet, codes, rng, 64);
    expect_same(bytes, 300, alphabet, "trial " + std::to_string(trial));
  }
}

TEST(HuffmanDifferential, LongCodesTakeTheFallbackWalk) {
  // Lengths 1, 2, ..., 23, 24, 24 form a complete code: symbol r is r ones
  // then a zero (r < 24), symbol 24 is 24 ones. Runs of every length make
  // codes past the table's 11 bits, which only the canonical walk decodes,
  // as common as the short ones.
  Pairs chain;
  for (int l = 1; l <= kMaxCodeLen; ++l) chain.emplace_back(l - 1, l);
  chain.emplace_back(kMaxCodeLen, kMaxCodeLen);
  util::Pcg32 rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    util::BitWriter bw;
    put_table(bw, kMaxCodeLen + 1, chain);
    for (int i = 0; i < 200; ++i) {
      const int run = static_cast<int>(rng.bounded(kMaxCodeLen + 1));
      if (run > 0) bw.write_bits((1ull << run) - 1, run);
      if (run < kMaxCodeLen) bw.write_bits(0, 1);
    }
    const auto bytes = bw.finish();
    expect_same(bytes, 200, kMaxCodeLen + 1,
                "trial " + std::to_string(trial));
  }

  // Skewed frequencies under the encoder's own length limiting: lengths up
  // to 24 from real Kraft repair, every symbol drawn uniformly.
  std::vector<std::uint64_t> freq(40);
  for (std::size_t i = 0; i < freq.size(); ++i) {
    freq[i] = std::uint64_t{1} << std::min<std::size_t>(i, 50);
  }
  const auto lengths = build_code_lengths(freq, kMaxCodeLen);
  ASSERT_EQ(*std::max_element(lengths.begin(), lengths.end()), kMaxCodeLen);
  std::vector<std::uint32_t> stream(3000);
  for (auto& s : stream) s = rng.bounded(40);
  expect_same(huffman_encode_symbols(stream, 40), stream.size(), 40,
              "skewed");
}

TEST(HuffmanDifferential, IncompleteCodesRejectUnfilledPrefixes) {
  util::Pcg32 rng(7);
  const std::vector<std::pair<std::uint32_t, Pairs>> tables = {
      {4, {{0, 1}, {1, 3}}},             // "11" unfilled
      {8, {{3, 2}, {5, 2}, {6, 2}}},     // one 2-bit prefix unfilled
      {64, {{0, 2}, {1, 13}, {2, 20}}},  // unfilled within the table
      {64, {{9, 12}, {10, 12}}},         // nothing below 12 bits
      {1, {{0, 1}}},                     // the single-symbol code
      {16, {}},                          // no codes at all
  };
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const auto& [alphabet, codes] = tables[t];
    bool threw = false;
    for (int trial = 0; trial < 40; ++trial) {
      const auto bytes = table_stream(alphabet, codes, rng, 4);
      const std::string what =
          "table " + std::to_string(t) + " trial " + std::to_string(trial);
      expect_same(bytes, 64, alphabet, what);
      threw |= !decode_each<Reference>(bytes, 64, alphabet).error.empty();
    }
    EXPECT_TRUE(threw) << "table " << t << " never hit an unfilled prefix";
  }
}

TEST(HuffmanDifferential, OverSubscribedCodesMatchTheWalk) {
  // Corrupt tables can list more codes than the code space holds; the
  // canonical codes of the later lengths then run past 2^length, where the
  // walk never matches them. The lookup table must not let them alias onto
  // prefixes that shorter codes own.
  util::Pcg32 rng(11);
  const std::vector<std::pair<std::uint32_t, Pairs>> tables = {
      {4, {{0, 1}, {1, 1}, {2, 1}, {3, 2}}},
      {8, {{0, 1}, {1, 2}, {2, 2}, {3, 2}, {4, 3}}},
      {64, {{0, 3}, {1, 3}, {2, 3}, {3, 3}, {4, 3}, {5, 3}, {6, 3}, {7, 3},
            {8, 3}, {9, 12}, {10, 14}}},
  };
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const auto& [alphabet, codes] = tables[t];
    for (int trial = 0; trial < 20; ++trial) {
      expect_same(table_stream(alphabet, codes, rng, 4), 64, alphabet,
                  "table " + std::to_string(t) + " trial " +
                      std::to_string(trial));
    }
  }
}

TEST(HuffmanDifferential, StreamsTruncatedAtEveryByte) {
  util::Pcg32 rng(99);
  for (const std::uint32_t alphabet : {2u, 40u, 300u, 5000u}) {
    std::vector<std::uint32_t> stream(300);
    for (auto& s : stream) {
      s = rng.uniform() < 0.7 ? rng.bounded(std::min(alphabet, 8u))
                              : rng.bounded(alphabet);
    }
    const auto bytes = huffman_encode_symbols(stream, alphabet);
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
      expect_same(std::span(bytes).first(n), stream.size(), alphabet,
                  "alphabet " + std::to_string(alphabet) + " prefix " +
                      std::to_string(n));
    }
  }
}

// ------------------------------------------------ codec payload walkers
//
// Each walker follows one codec's bit layout far enough to drive every
// Huffman decode the real decoder makes, with the same extra-bit reads in
// between, and records the decoded symbols and positions.

/// ZstdLike payload: counts, four tables, the literals as one array, then
/// (literal-length, match-length, offset) buckets, each followed by its
/// extra bits.
template <typename Dec>
Trace walk_zstd(std::span<const std::uint8_t> payload) {
  Trace t;
  try {
    util::BitReader br(payload);
    const auto n_seq = static_cast<std::size_t>(br.read_bits(32));
    const auto n_lit = static_cast<std::size_t>(br.read_bits(32));
    if (n_lit > payload.size() * 8 || n_seq > payload.size() * 8) {
      throw std::runtime_error("corrupt section counts");
    }
    Dec lit, ll, ml, of;
    lit.read_table(br, 256);
    ll.read_table(br, 33);
    ml.read_table(br, 33);
    of.read_table(br, 33);
    t.bit_pos.push_back(br.bit_pos());
    t.symbols.resize(n_lit);
    decode_array(lit, br, t.symbols);
    t.bit_pos.push_back(br.bit_pos());
    for (std::size_t s = 0; s < n_seq; ++s) {
      for (const Dec* dec : {&ll, &ml, &of}) {
        const std::uint32_t b = dec->decode(br);
        t.symbols.push_back(b);
        t.bit_pos.push_back(br.bit_pos());
        if (b >= 32) throw std::runtime_error("corrupt sequence bucket");
        br.read_bits(static_cast<int>(b));
      }
    }
  } catch (const std::runtime_error& e) {
    t.error = e.what();
  }
  return t;
}

/// GzipLike payload: two tables, then literal/length symbols until
/// end-of-block, each length followed by its extra bits, a distance symbol
/// and the distance's extra bits (DEFLATE's tables).
template <typename Dec>
Trace walk_gzip(std::span<const std::uint8_t> payload) {
  static constexpr std::array<int, 29> kLenExtra = {
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
      2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
  static constexpr std::array<int, 30> kDistExtra = {
      0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
      6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
  Trace t;
  try {
    util::BitReader br(payload);
    Dec litlen, dist;
    litlen.read_table(br, 257 + kLenExtra.size());
    dist.read_table(br, kDistExtra.size());
    t.bit_pos.push_back(br.bit_pos());
    for (;;) {
      if (br.bit_pos() > payload.size() * 8) {
        throw std::runtime_error("truncated stream");
      }
      const std::uint32_t sym = litlen.decode(br);
      t.symbols.push_back(sym);
      t.bit_pos.push_back(br.bit_pos());
      if (sym == 256) break;
      if (sym < 256) continue;
      if (sym - 257 >= kLenExtra.size()) {
        throw std::runtime_error("bad length symbol");
      }
      br.read_bits(kLenExtra[sym - 257]);
      const std::uint32_t dc = dist.decode(br);
      t.symbols.push_back(dc);
      t.bit_pos.push_back(br.bit_pos());
      if (dc >= kDistExtra.size()) {
        throw std::runtime_error("bad distance symbol");
      }
      br.read_bits(kDistExtra[dc]);
    }
  } catch (const std::runtime_error& e) {
    t.error = e.what();
  }
  return t;
}

/// Index-array-like bytes: sorted gaps with runs, what both backends see.
std::vector<std::uint8_t> index_like(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform() < 0.8 ? rng.bounded(12)
                                                      : rng.next_u32());
  }
  return out;
}

/// The input itself, then `count` copies with the MutatedFramesNeverCrash
/// treatment: sometimes truncated, then up to four single-bit flips.
std::vector<std::vector<std::uint8_t>> with_mutations(
    const std::vector<std::uint8_t>& clean, util::Pcg32& rng, int count) {
  std::vector<std::vector<std::uint8_t>> out = {clean};
  for (int trial = 0; trial < count; ++trial) {
    auto copy = clean;
    if (rng.uniform() < 0.4 && copy.size() > 2) {
      copy.resize(1 + rng.bounded(static_cast<std::uint32_t>(copy.size() - 1)));
    }
    for (int f = 0; f < 4 && !copy.empty(); ++f) {
      copy[rng.bounded(static_cast<std::uint32_t>(copy.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    out.push_back(std::move(copy));
  }
  return out;
}

TEST(HuffmanDifferential, ZstdPayloadsCleanAndMutated) {
  util::Pcg32 rng(5);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto payload = raw::zstd_like_compress(index_like(20000, seed));
    for (const auto& p : with_mutations(payload, rng, 40)) {
      expect_same_trace(walk_zstd<HuffmanDecoder>(p), walk_zstd<Reference>(p),
                        "zstd seed " + std::to_string(seed));
    }
  }
}

TEST(HuffmanDifferential, GzipPayloadsCleanAndMutated) {
  util::Pcg32 rng(6);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto payload = raw::gzip_like_compress(index_like(20000, seed));
    for (const auto& p : with_mutations(payload, rng, 40)) {
      expect_same_trace(walk_gzip<HuffmanDecoder>(p), walk_gzip<Reference>(p),
                        "gzip seed " + std::to_string(seed));
    }
  }
}

TEST(HuffmanDifferential, SzV1FixtureSymbolSection) {
  // Store-framed v1 payload after the 13-byte outer frame: a 45-byte fixed
  // header, then kinds (u64 length + bytes), fits (u64 count + 8 bytes
  // each), and the symbol section (u64 length + [table][codes]).
  const auto stream = testing::read_fixture("sz_v1.szs");
  const auto info = sz::inspect(stream);
  util::ByteReader r{std::span(stream).subspan(13 + 45)};
  r.get_bytes(static_cast<std::size_t>(r.get<std::uint64_t>()));
  r.get_bytes(static_cast<std::size_t>(r.get<std::uint64_t>()) * 8);
  const auto huff_len = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto huff = r.get_bytes(huff_len);
  const std::vector<std::uint8_t> section(huff.begin(), huff.end());
  const auto count = static_cast<std::size_t>(info.count);
  ASSERT_TRUE(decode_each<Reference>(section, count, info.quant_bins)
                  .error.empty());

  util::Pcg32 rng(8);
  for (const auto& s : with_mutations(section, rng, 60)) {
    expect_same(s, count, info.quant_bins, "sz v1 section");
  }
}

TEST(HuffmanDifferential, SzV2FixtureChunks) {
  // v2: a 55-byte fixed header, an (offset u64, length u64) entry per
  // chunk, then the chunk area. Each chunk is a lossless frame whose body
  // holds n u32, outliers u32, kinds length u32, fits u32, symbol-section
  // length u64, the kinds, the fits and the symbol section.
  const auto stream = testing::read_fixture("sz_v2.szs");
  const auto info = sz::inspect(stream);
  ASSERT_EQ(info.n_chunks, 3u);
  const std::size_t area = 55 + 16 * info.n_chunks;
  util::ByteReader table{std::span(stream).subspan(55)};
  util::Pcg32 rng(9);
  for (std::uint64_t c = 0; c < info.n_chunks; ++c) {
    const auto off = static_cast<std::size_t>(table.get<std::uint64_t>());
    const auto len = static_cast<std::size_t>(table.get<std::uint64_t>());
    const auto body = decompress(std::span(stream).subspan(area + off, len));
    util::ByteReader r(body);
    const auto n = static_cast<std::size_t>(r.get<std::uint32_t>());
    r.get<std::uint32_t>();
    const auto kinds_len = static_cast<std::size_t>(r.get<std::uint32_t>());
    const auto n_fits = static_cast<std::size_t>(r.get<std::uint32_t>());
    const auto huff_len = static_cast<std::size_t>(r.get<std::uint64_t>());
    r.get_bytes(kinds_len + 8 * n_fits);
    const auto huff = r.get_bytes(huff_len);
    const std::vector<std::uint8_t> section(huff.begin(), huff.end());
    ASSERT_TRUE(
        decode_each<Reference>(section, n, info.quant_bins).error.empty());
    for (const auto& s : with_mutations(section, rng, 30)) {
      expect_same(s, n, info.quant_bins,
                  "sz v2 chunk " + std::to_string(c) + " section");
    }
  }
}

}  // namespace
}  // namespace deepsz::lossless
