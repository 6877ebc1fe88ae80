// GzipLike: DEFLATE-style compressor (LZ77 over a 32 KB window + canonical
// Huffman coding of literal/length and distance symbols with DEFLATE's exact
// extra-bit tables). Not bitwise gzip-compatible — the container framing and
// code-table serialization are ours — but algorithmically the same design
// point, which is what the paper's "Gzip" rows measure.

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "lossless/codec.h"
#include "lossless/entropy.h"
#include "lossless/lz77.h"
#include "util/bitstream.h"

namespace deepsz::lossless::raw {
namespace {

// DEFLATE length codes 257..285 (index 0 == symbol 257).
constexpr int kNumLenCodes = 29;
constexpr std::array<std::uint16_t, kNumLenCodes> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, kNumLenCodes> kLenExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// DEFLATE distance codes 0..29.
constexpr int kNumDistCodes = 30;
constexpr std::array<std::uint32_t, kNumDistCodes> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<std::uint8_t, kNumDistCodes> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr int kEndOfBlock = 256;
constexpr int kLitLenAlphabet = 257 + kNumLenCodes;  // 0..255 lit, 256 EOB, 257..285 len

int length_code(std::uint32_t len) {
  for (int c = kNumLenCodes - 1; c >= 0; --c) {
    if (len >= kLenBase[c]) return c;
  }
  throw std::runtime_error("gzip_like: length below minimum");
}

int distance_code(std::uint32_t dist) {
  for (int c = kNumDistCodes - 1; c >= 0; --c) {
    if (dist >= kDistBase[c]) return c;
  }
  throw std::runtime_error("gzip_like: distance below minimum");
}

struct Token {
  std::uint32_t literal_or_len;  // literal value if dist == 0, else match len
  std::uint32_t dist;            // 0 = literal
};

// Greedy parse with one-step lazy matching (zlib's strategy): defer a match
// if the next position offers a strictly longer one.
std::vector<Token> tokenize(std::span<const std::uint8_t> data) {
  const MatchFinder mf(data, kGzipLz77);

  std::vector<Token> tokens;
  tokens.reserve(data.size() / 4 + 16);
  // zlib's TOO_FAR heuristic: a length-3 match far away costs more in
  // distance extra bits than the literals it replaces.
  auto too_far = [](const Match& m) {
    return m.length == 3 && m.distance > 4096;
  };

  // find() depends only on the position, so the lookahead of a deferred
  // match is reused as the next position's match.
  std::optional<Match> ahead;
  std::size_t pos = 0;
  while (pos < data.size()) {
    Match m = ahead ? *ahead : mf.find(pos);
    ahead.reset();
    if (m.found() && too_far(m)) m = Match{};
    if (m.found() && pos + 1 < data.size()) {
      Match next = mf.find(pos + 1);
      if (next.length > m.length + 1) {
        tokens.push_back({data[pos], 0});
        ahead = next;
        ++pos;
        continue;
      }
      tokens.push_back({m.length, m.distance});
      pos += m.length;
      continue;
    }
    tokens.push_back({data[pos], 0});
    ++pos;
  }
  return tokens;
}

}  // namespace

std::vector<std::uint8_t> gzip_like_compress(std::span<const std::uint8_t> data) {
  auto tokens = tokenize(data);

  std::vector<std::uint64_t> litlen_freq(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kNumDistCodes, 0);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++litlen_freq[t.literal_or_len];
    } else {
      ++litlen_freq[257 + length_code(t.literal_or_len)];
      ++dist_freq[distance_code(t.dist)];
    }
  }
  ++litlen_freq[kEndOfBlock];

  HuffmanEncoder litlen_enc, dist_enc;
  litlen_enc.init(litlen_freq, 15);
  dist_enc.init(dist_freq, 15);

  util::BitWriter bw;
  litlen_enc.write_table(bw);
  dist_enc.write_table(bw);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      litlen_enc.encode(bw, t.literal_or_len);
    } else {
      int lc = length_code(t.literal_or_len);
      litlen_enc.encode(bw, 257 + lc);
      bw.write_bits(t.literal_or_len - kLenBase[lc], kLenExtra[lc]);
      int dc = distance_code(t.dist);
      dist_enc.encode(bw, dc);
      bw.write_bits(t.dist - kDistBase[dc], kDistExtra[dc]);
    }
  }
  litlen_enc.encode(bw, kEndOfBlock);
  return bw.finish();
}

std::vector<std::uint8_t> gzip_like_decompress(
    std::span<const std::uint8_t> payload, std::size_t raw_size) {
  util::BitReader br(payload);
  HuffmanDecoder litlen_dec, dist_dec;
  litlen_dec.read_table(br, kLitLenAlphabet);
  dist_dec.read_table(br, kNumDistCodes);

  std::vector<std::uint8_t> out;
  out.reserve(untrusted_reserve_hint(raw_size, payload.size()));
  for (;;) {
    // A valid stream ends with kEndOfBlock before the reader runs dry; past
    // the end BitReader yields zero bits, which a corrupt stream could keep
    // decoding into literals forever, so both conditions are checked before
    // any byte is appended.
    if (br.bit_pos() > payload.size() * 8) {
      throw std::runtime_error("gzip_like: truncated stream");
    }
    std::uint32_t sym = litlen_dec.decode(br);
    if (sym == kEndOfBlock) break;
    if (sym < 256) {
      if (out.size() >= raw_size) {
        throw std::runtime_error("gzip_like: output overrun");
      }
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    int lc = static_cast<int>(sym) - 257;
    if (lc >= kNumLenCodes) {
      throw std::runtime_error("gzip_like: bad length symbol");
    }
    std::uint32_t len =
        kLenBase[lc] + static_cast<std::uint32_t>(br.read_bits(kLenExtra[lc]));
    std::uint32_t dc = dist_dec.decode(br);
    if (dc >= kNumDistCodes) {
      throw std::runtime_error("gzip_like: bad distance symbol");
    }
    std::uint32_t dist =
        kDistBase[dc] + static_cast<std::uint32_t>(br.read_bits(kDistExtra[dc]));
    if (dist > out.size()) {
      throw std::runtime_error("gzip_like: distance beyond output");
    }
    // Wrap-proof: out.size() <= raw_size is a loop invariant, so the
    // subtraction cannot underflow (the additive form could wrap on 32-bit).
    if (len > raw_size - out.size()) {
      throw std::runtime_error("gzip_like: output overrun");
    }
    std::size_t src = out.size() - dist;
    for (std::uint32_t i = 0; i < len; ++i) {
      out.push_back(out[src + i]);  // byte-serial: handles overlapping copies
    }
  }
  if (out.size() != raw_size) {
    throw std::runtime_error("gzip_like: output size mismatch");
  }
  return out;
}

}  // namespace deepsz::lossless::raw
