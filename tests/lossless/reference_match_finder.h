// Test-only reference for lossless::MatchFinder: the zlib-style hash-chain
// finder the bucketed index replaced. A head table maps the 16-bit hash of
// the next 4 bytes to the most recent position with that hash, and a prev
// chain links earlier occurrences. Callers insert() every position they
// advance past, so find(q) after inserting 0..q-1 sees exactly the positions
// before q — the candidate set MatchFinder::find(q) must reproduce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "lossless/lz77.h"

namespace deepsz::testing {

class ChainMatchFinder {
 public:
  ChainMatchFinder(std::span<const std::uint8_t> data,
                   const lossless::Lz77Params& params)
      : data_(data),
        params_(params),
        window_size_(std::size_t{1} << params.window_bits),
        head_(kHashSize, -1),
        prev_(data.size(), -1) {}

  lossless::Match find(std::size_t pos) const {
    lossless::Match best;
    if (pos + static_cast<std::size_t>(params_.min_match) > data_.size()) {
      return best;
    }
    const std::size_t limit = pos >= window_size_ ? pos - window_size_ : 0;
    const std::size_t max_len =
        std::min<std::size_t>(params_.max_match, data_.size() - pos);

    std::int64_t cand = head_[hash_at(pos)];
    int chain = params_.max_chain;
    while (cand >= 0 && static_cast<std::size_t>(cand) >= limit &&
           chain-- > 0) {
      const auto c = static_cast<std::size_t>(cand);
      if (c < pos) {
        // Quick rejection on the byte one past the current best length.
        if (best.length == 0 ||
            (c + best.length < data_.size() &&
             pos + best.length < data_.size() &&
             data_[c + best.length] == data_[pos + best.length])) {
          std::size_t len = 0;
          while (len < max_len && data_[c + len] == data_[pos + len]) ++len;
          if (len >= static_cast<std::size_t>(params_.min_match) &&
              len > best.length) {
            best.length = static_cast<std::uint32_t>(len);
            best.distance = static_cast<std::uint32_t>(pos - c);
            if (len >= static_cast<std::size_t>(params_.nice_length)) break;
          }
        }
      }
      cand = prev_[c];
    }
    return best;
  }

  /// Registers position `pos` in the hash chains.
  void insert(std::size_t pos) {
    if (pos + 4 > data_.size()) return;
    const std::uint32_t h = hash_at(pos);
    prev_[pos] = head_[h];
    head_[h] = static_cast<std::int64_t>(pos);
  }

 private:
  static constexpr int kHashBits = 16;
  static constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

  std::uint32_t hash_at(std::size_t pos) const {
    // 4-byte multiplicative hash (Fibonacci constant); positions within 4
    // bytes of the end hash whatever bytes remain.
    std::uint32_t h = 0;
    for (std::size_t i = 0; i < 4 && pos + i < data_.size(); ++i) {
      h = (h << 8) | data_[pos + i];
    }
    return (h * 2654435761u) >> (32 - kHashBits);
  }

  std::span<const std::uint8_t> data_;
  lossless::Lz77Params params_;
  std::size_t window_size_;
  std::vector<std::int64_t> head_;
  std::vector<std::int64_t> prev_;
};

}  // namespace deepsz::testing
