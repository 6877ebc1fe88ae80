// Test-only reference for lossless::HuffmanDecoder: the bit-serial canonical
// decoder the lookup table replaced. It reads the same serialized code book
// with the same checks, builds the per-length first-code / offset / count
// arrays, and decodes by reading one bit per read_bit() call, walking the
// code lengths until the accumulated code falls inside a length's range.
// Symbols, consumed bits and error messages are what the table-driven
// decoder must reproduce.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lossless/entropy.h"
#include "util/bitstream.h"

namespace deepsz::testing {

class BitSerialHuffmanDecoder {
 public:
  void read_table(util::BitReader& br, std::size_t max_alphabet) {
    auto alphabet = static_cast<std::size_t>(br.read_bits(32));
    auto n_present = static_cast<std::size_t>(br.read_bits(32));
    if (alphabet > max_alphabet) {
      throw std::runtime_error(
          "HuffmanDecoder: table alphabet exceeds the caller's symbol range");
    }
    if (alphabet > (1u << 26)) {
      throw std::runtime_error("HuffmanDecoder: implausible alphabet size");
    }
    if (n_present > alphabet) {
      throw std::runtime_error("HuffmanDecoder: more codes than symbols");
    }
    const int sym_bits =
        alphabet <= 1 ? 1 : std::bit_width(alphabet - 1);
    std::vector<Code> codes;
    for (std::size_t i = 0; i < n_present; ++i) {
      auto sym = static_cast<std::uint32_t>(br.read_bits(sym_bits));
      auto len = static_cast<int>(br.read_bits(5));
      if (sym >= alphabet || len == 0 || len > lossless::kMaxCodeLen) {
        throw std::runtime_error("HuffmanDecoder: corrupt code table");
      }
      codes.push_back({sym, len});
    }
    build(std::move(codes));
  }

  std::uint32_t decode(util::BitReader& br) const {
    std::uint32_t code = 0;
    for (int l = 1; l <= max_len_; ++l) {
      code = (code << 1) | br.read_bit();
      std::uint32_t rel = code - first_code_[l];
      if (code >= first_code_[l] && rel < count_[l]) {
        return sorted_symbols_[offset_[l] + rel];
      }
    }
    throw std::runtime_error("HuffmanDecoder: invalid code in stream");
  }

 private:
  struct Code {
    std::uint32_t symbol;
    int length;
  };

  void build(std::vector<Code> codes) {
    std::sort(codes.begin(), codes.end(), [](const Code& a, const Code& b) {
      return a.symbol < b.symbol;
    });
    for (std::size_t i = 1; i < codes.size(); ++i) {
      if (codes[i].symbol == codes[i - 1].symbol) {
        throw std::runtime_error("HuffmanDecoder: repeated symbol in table");
      }
    }
    std::stable_sort(codes.begin(), codes.end(),
                     [](const Code& a, const Code& b) {
                       return a.length < b.length;
                     });
    max_len_ = codes.empty() ? 0 : codes.back().length;
    count_.assign(max_len_ + 1, 0);
    for (const auto& c : codes) {
      ++count_[c.length];
      sorted_symbols_.push_back(c.symbol);
    }
    first_code_.assign(max_len_ + 1, 0);
    offset_.assign(max_len_ + 1, 0);
    std::uint32_t code = 0, idx = 0;
    for (int l = 1; l <= max_len_; ++l) {
      code = (code + count_[l - 1]) << 1;
      first_code_[l] = code;
      offset_[l] = idx;
      idx += count_[l];
    }
  }

  int max_len_ = 0;
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> sorted_symbols_;
};

}  // namespace deepsz::testing
