// LSB-first bit-level writer/reader used by every entropy coder in the repo
// (Huffman stages of SZ / GzipLike / ZstdLike, ZFP bit-plane coder).
//
// Bit order follows the DEFLATE convention: the first bit written occupies the
// least-significant bit of the first byte. Multi-bit fields are written with
// their least-significant bit first, so write_bits(v, n) followed by
// read_bits(n) round-trips any v < 2^n.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace deepsz::util {

/// Accumulates bits into a growing byte vector.
class BitWriter {
 public:
  /// Writes the low `nbits` bits of `value`, LSB first. nbits in [0, 57].
  void write_bits(std::uint64_t value, int nbits);

  /// Writes a single bit.
  void write_bit(std::uint32_t bit) { write_bits(bit & 1u, 1); }

  /// Flushes any partial byte (zero-padded) and returns the buffer.
  std::vector<std::uint8_t> finish();

  /// Number of whole bits written so far.
  std::size_t bit_count() const { return bytes_.size() * 8 + nbuf_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t buf_ = 0;  // pending bits, LSB = oldest
  int nbuf_ = 0;           // number of pending bits in buf_
};

/// Reads bits back in the order BitWriter wrote them.
///
/// The reader keeps up to 64 upcoming bits in a buffer, refilled 8 bytes at
/// a time, so a decoder can peek a whole lookup-table index and then consume
/// only the bits the matched code used. Every member is inline: a decoder
/// that copies the reader into a local can keep the buffer in registers
/// across a whole symbol array.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Returns the next `nbits` bits (LSB first) without consuming them.
  /// nbits in [0, 57]. Bits past the end read as zero, mirroring the zero
  /// padding emitted by BitWriter::finish().
  std::uint64_t peek_bits(int nbits) {
    assert(nbits >= 0 && nbits <= 57);
    if (nbuf_ < nbits) refill();
    return buf_ & ((std::uint64_t{1} << nbits) - 1);
  }

  /// Consumes `nbits` bits, nbits in [0, 57]. bit_pos() advances by exactly
  /// `nbits`, past the end too.
  void skip_bits(int nbits) {
    assert(nbits >= 0 && nbits <= 57);
    if (nbuf_ < nbits) refill();
    buf_ >>= nbits;
    nbuf_ = nbits < nbuf_ ? nbuf_ - nbits : 0;
    bit_pos_ += static_cast<std::size_t>(nbits);
  }

  /// Reads `nbits` bits (LSB first), nbits in [0, 57]. Reads past the end
  /// return zero bits.
  std::uint64_t read_bits(int nbits) {
    const std::uint64_t v = peek_bits(nbits);
    skip_bits(nbits);
    return v;
  }

  /// Reads a single bit.
  std::uint32_t read_bit() { return static_cast<std::uint32_t>(read_bits(1)); }

  /// Total bits consumed.
  std::size_t bit_pos() const { return bit_pos_; }

  /// True once every real (non-padding) bit has been consumed.
  bool exhausted() const { return bit_pos_ >= data_.size() * 8; }

 private:
  /// Tops the buffer up to at least 57 bits while input remains. Bits of
  /// buf_ above nbuf_ always hold the stream's own bits at those positions
  /// (zero past the end), so the partial byte a whole-word load leaves
  /// behind may be OR-ed in again later.
  void refill() {
    if (nbuf_ <= 56 && data_.size() - byte_pos_ >= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, data_.data() + byte_pos_, 8);
      if constexpr (std::endian::native == std::endian::big) {
        word = byteswap64(word);
      }
      buf_ |= word << nbuf_;
      byte_pos_ += static_cast<std::size_t>(63 - nbuf_) >> 3;
      nbuf_ |= 56;
    }
    while (nbuf_ <= 56 && byte_pos_ < data_.size()) {
      buf_ |= std::uint64_t{data_[byte_pos_++]} << nbuf_;
      nbuf_ += 8;
    }
  }

  static std::uint64_t byteswap64(std::uint64_t v) {
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r = (r << 8) | (v & 0xffu);
      v >>= 8;
    }
    return r;
  }

  std::span<const std::uint8_t> data_;
  std::size_t byte_pos_ = 0;
  std::size_t bit_pos_ = 0;
  std::uint64_t buf_ = 0;  // upcoming bits, LSB = next
  int nbuf_ = 0;           // bits of buf_ loaded from data_
};

}  // namespace deepsz::util
