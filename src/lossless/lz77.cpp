#include "lossless/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace deepsz::lossless {

namespace {
constexpr int kHashBits = 16;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kHashBytes = 4;
// How far ahead the index build and queries prefetch position slots.
constexpr std::size_t kPrefetchAhead = 32;

std::uint32_t hash_value(std::uint32_t v) {
  // Multiplicative hash (Fibonacci constant).
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Hash of the kHashBytes bytes at `p`, read big-endian.
std::uint32_t hash4(const std::uint8_t* p) {
  return hash_value((std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
                    (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]});
}

/// Hash of the bytes at `pos`; positions within kHashBytes of the end hash
/// whatever bytes remain.
std::uint32_t hash_at(std::span<const std::uint8_t> data, std::size_t pos) {
  if (pos + kHashBytes <= data.size()) return hash4(data.data() + pos);
  std::uint32_t v = 0;
  for (std::size_t i = pos; i < data.size(); ++i) v = (v << 8) | data[i];
  return hash_value(v);
}

/// Length of the common prefix of `a` and `b`, capped at `max_len`; compares
/// 8 bytes per step. Both ranges must hold `max_len` readable bytes.
std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t max_len) {
  std::size_t len = 0;
  for (; len + 8 <= max_len; len += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bits / 8);
    }
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}
}  // namespace

MatchFinder::MatchFinder(std::span<const std::uint8_t> data,
                         const Lz77Params& params)
    : data_(data),
      params_(params),
      window_size_(std::size_t{1} << params.window_bits) {
  if (data.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("MatchFinder: input exceeds 4 GiB");
  }
  const std::size_t n =
      data.size() >= kHashBytes ? data.size() - kHashBytes + 1 : 0;
  const std::uint8_t* d = data.data();
  storage_ =
      std::make_unique_for_overwrite<std::uint32_t[]>(kHashSize + 1 + 2 * n);
  bucket_start_ = {storage_.get(), kHashSize + 1};
  positions_ = {bucket_start_.data() + bucket_start_.size(), n};
  rank_ = {positions_.data() + n, n};
  // Only the bucket table needs zeroes; the other two are written in full.
  std::ranges::fill(bucket_start_, 0u);

  // Counting sort by hash. bucket_start_[h + 1] first counts bucket h, and
  // rank_[p] takes p's rank among the earlier positions of its bucket, so
  // each bucket lists its positions in ascending order.
  for (std::size_t p = 0; p < n; ++p) {
    rank_[p] = bucket_start_[hash4(d + p) + 1]++;
  }
  std::partial_sum(bucket_start_.begin(), bucket_start_.end(),
                   bucket_start_.begin());
  for (std::size_t p = 0; p < n; ++p) rank_[p] += bucket_start_[hash4(d + p)];
  // The scatter writes all over positions_; fetching each target line
  // kPrefetchAhead positions early keeps many of those misses in flight.
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kPrefetchAhead < n) {
      __builtin_prefetch(positions_.data() + rank_[p + kPrefetchAhead], 1);
    }
    positions_[rank_[p]] = static_cast<std::uint32_t>(p);
  }
}

Match MatchFinder::find(std::size_t pos) const {
  Match best;
  const std::size_t size = data_.size();
  if (pos + static_cast<std::size_t>(params_.min_match) > size) {
    return best;
  }
  const std::uint8_t* d = data_.data();
  const std::size_t limit = pos >= window_size_ ? pos - window_size_ : 0;
  const std::size_t max_len =
      std::min<std::size_t>(params_.max_match, size - pos);

  if (pos + kPrefetchAhead < rank_.size()) {
    // Parses query ascending positions; start loading a later query's
    // nearest candidate now.
    const std::uint32_t r = rank_[pos + kPrefetchAhead];
    __builtin_prefetch(positions_.data() + (r > 0 ? r - 1 : 0));
  }
  // The candidates are the positions before `pos` in its bucket, nearest
  // first. A position too close to the end to be indexed follows every
  // indexed one, so its candidates are the whole bucket.
  const std::uint32_t h = hash_at(data_, pos);
  const std::uint32_t* cand =
      positions_.data() +
      (pos < rank_.size() ? rank_[pos] : bucket_start_[h + 1]);
  // Many queries have no candidate: the slot before theirs holds another
  // hash, or a position beyond the window. Settle those from that slot
  // alone; the bucket's start is loaded only to bound a longer scan.
  if (cand == positions_.data() || cand[-1] < limit ||
      hash4(d + cand[-1]) != h) {
    return best;
  }
  const std::uint32_t* first = positions_.data() + bucket_start_[h];
  int chain = params_.max_chain;
  while (cand != first && chain-- > 0) {
    const std::size_t c = *--cand;
    if (c < limit) break;
    // Quick rejection on the byte one past the current best length.
    if (best.length != 0 && (pos + best.length >= size ||
                             d[c + best.length] != d[pos + best.length])) {
      continue;
    }
    const std::size_t len = common_prefix(d + c, d + pos, max_len);
    if (len >= static_cast<std::size_t>(params_.min_match) &&
        len > best.length) {
      best.length = static_cast<std::uint32_t>(len);
      best.distance = static_cast<std::uint32_t>(pos - c);
      if (len >= static_cast<std::size_t>(params_.nice_length)) break;
    }
  }
  return best;
}

}  // namespace deepsz::lossless
