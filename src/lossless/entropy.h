// Canonical Huffman entropy coding, shared by every entropy stage in the
// repository: the SZ quantization-code stream, the GzipLike DEFLATE-style
// block coder, and the ZstdLike sequence coder.
//
// Codes are canonical (assigned by (length, symbol) order), length-limited via
// Kraft-sum repair, and written bit-reversed so that the first stream bit is
// the most significant code bit while the underlying BitWriter stays
// LSB-first. The next k stream bits, read LSB-first, therefore index a lookup
// table directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitstream.h"

namespace deepsz::lossless {

/// Maximum code length supported by the canonical coder.
inline constexpr int kMaxCodeLen = 24;

/// Computes length-limited Huffman code lengths (0 = symbol absent) for the
/// given symbol frequencies. Lengths never exceed `max_len`.
std::vector<int> build_code_lengths(std::span<const std::uint64_t> freq,
                                    int max_len = kMaxCodeLen);

/// Encodes symbols with a canonical Huffman code built from a frequency table.
class HuffmanEncoder {
 public:
  /// Builds the code book. Symbols with zero frequency get no code and must
  /// not be passed to encode().
  void init(std::span<const std::uint64_t> freq, int max_len = kMaxCodeLen);

  /// Serializes the code book (sparse symbol/length list) into `bw`.
  void write_table(util::BitWriter& bw) const;

  /// Writes the code for `sym`.
  void encode(util::BitWriter& bw, std::uint32_t sym) const {
    bw.write_bits(codes_[sym], lengths_[sym]);
  }

  /// Code length in bits for `sym` (0 if absent). Used for cost estimation.
  int length(std::uint32_t sym) const { return lengths_[sym]; }

  std::size_t alphabet_size() const { return lengths_.size(); }

 private:
  std::vector<std::uint32_t> codes_;  // bit-reversed canonical codes
  std::vector<int> lengths_;
};

/// Decodes a canonical Huffman stream produced by HuffmanEncoder.
///
/// Decoding is table-driven: a 2^k-entry table (k = min(kMaxTableBits,
/// longest code)) indexed by the next k stream bits yields the symbol and its
/// code length in one lookup. Codes longer than k bits, and k-bit prefixes no
/// code fills, fall back to the canonical walk over the code lengths, which
/// rejects invalid codes.
class HuffmanDecoder {
 public:
  /// Reads the code book serialized by HuffmanEncoder::write_table. Throws
  /// std::runtime_error on a corrupt table: a declared alphabet beyond
  /// `max_alphabet` (the caller's own symbol range, checked before anything
  /// is built), more codes than symbols, a repeated symbol, or an
  /// out-of-range symbol or length.
  void read_table(util::BitReader& br, std::size_t max_alphabet);

  /// Builds decoding structures directly from code lengths (for coders whose
  /// table is transmitted out of band).
  void init_from_lengths(std::span<const int> lengths);

  /// Decodes one symbol. Throws std::runtime_error on an invalid code.
  std::uint32_t decode(util::BitReader& br) const;

  /// Decodes out.size() consecutive symbols, keeping the bit buffer in
  /// registers for the whole array. Throws std::runtime_error on an invalid
  /// code; `br`'s position is then unspecified.
  void decode(util::BitReader& br, std::span<std::uint32_t> out) const;

  std::size_t alphabet_size() const { return alphabet_; }

 private:
  struct SymbolLength {
    std::uint32_t symbol;
    int length;
  };
  /// Widest lookup-table index: 2^11 four-byte entries (8 KiB) stay in L1
  /// cache; codes longer than this take the walk.
  static constexpr int kMaxTableBits = 11;
  /// A table entry packs `symbol << kLenBits | length`; length 0 marks a
  /// prefix that needs the canonical walk. Symbols stay below the 2^26
  /// alphabet ceiling, so the packing fits 32 bits.
  static constexpr int kLenBits = 5;
  static constexpr std::uint32_t kLenMask = (1u << kLenBits) - 1;

  /// Builds the canonical tables from the present symbols alone, in
  /// O(n log n) of their count — never of the declared alphabet. Throws
  /// std::runtime_error on a repeated symbol.
  void build(std::size_t alphabet, std::vector<SymbolLength> codes);

  /// Decodes one symbol through the lookup table, falling back to walk().
  std::uint32_t decode_one(util::BitReader& br) const;

  /// Canonical walk over the next max_len_ stream bits (`bits`, LSB = next
  /// stream bit = most significant code bit). Returns the packed table
  /// entry of the code found; throws std::runtime_error if none matches.
  std::uint32_t walk(std::uint64_t bits) const;

  std::size_t alphabet_ = 0;
  int max_len_ = 0;
  int table_bits_ = 0;
  std::vector<std::uint32_t> table_;  // 2^table_bits_ packed entries
  // Canonical decoding tables indexed by code length.
  std::vector<std::uint32_t> first_code_;   // first canonical code of length L
  std::vector<std::uint32_t> offset_;       // index into sorted_symbols_
  std::vector<std::uint32_t> count_;        // number of codes of length L
  std::vector<std::uint32_t> sorted_symbols_;
};

/// Reverses the low `nbits` bits of `v`.
std::uint32_t reverse_bits(std::uint32_t v, int nbits);

/// Self-contained [table][codes] framing of one symbol stream, built from
/// the stream's own frequencies — the framing shared by Deep Compression's
/// value/position streams (baselines) and the "huffman" byte codec.
std::vector<std::uint8_t> huffman_encode_symbols(
    std::span<const std::uint32_t> symbols, std::size_t alphabet);

/// Decodes `count` symbols written by huffman_encode_symbols. Throws
/// std::runtime_error when the embedded table declares an alphabet beyond
/// `max_alphabet` (decoded symbols are always below the declared alphabet,
/// so the cap bounds them too) or when a code is invalid.
std::vector<std::uint32_t> huffman_decode_symbols(
    std::span<const std::uint8_t> bytes, std::size_t count,
    std::size_t max_alphabet);

}  // namespace deepsz::lossless
