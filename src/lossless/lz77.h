// LZ77 match finding shared by GzipLike and ZstdLike.
//
// Every position whose next 4 bytes exist is indexed once, at construction,
// under a 16-bit hash of those bytes. Each hash bucket is one contiguous run
// of a position array, in position order, so a query scans its bucket
// backwards from its own slot: the same candidates, in the same order, as a
// zlib-style head/prev hash chain, read from contiguous memory instead of
// chased through links.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

namespace deepsz::lossless {

/// A back-reference candidate.
struct Match {
  std::uint32_t length = 0;    // match length in bytes (0 = no match)
  std::uint32_t distance = 0;  // backwards distance, >= 1

  bool found() const { return length > 0; }
};

/// Tunables for the match finder; each codec supplies its own profile.
struct Lz77Params {
  int window_bits = 15;     // search window = 2^window_bits bytes
  int min_match = 3;        // shortest useful match
  int max_match = 258;      // cap on match length
  int max_chain = 128;      // same-hash candidates probed per query
  int nice_length = 128;    // stop probing once a match this long is found
};

/// GzipLike's profile: DEFLATE's 32 KB window and 3..258 match lengths.
inline constexpr Lz77Params kGzipLz77{.window_bits = 15,
                                      .min_match = 3,
                                      .max_match = 258,
                                      .max_chain = 128,
                                      .nice_length = 128};

/// ZstdLike's profile: a 1 MB window and matches up to 64 KB.
inline constexpr Lz77Params kZstdLz77{.window_bits = 20,
                                      .min_match = 4,
                                      .max_match = 1 << 16,
                                      .max_chain = 256,
                                      .nice_length = 512};

/// Match finder over an immutable input buffer of at most 4 GiB.
class MatchFinder {
 public:
  MatchFinder(std::span<const std::uint8_t> data, const Lz77Params& params);

  /// Longest match for the bytes starting at `pos` against every earlier
  /// position, or an empty Match. A pure function of (data, pos): a parse
  /// may query positions in any order, and as often as it likes.
  Match find(std::size_t pos) const;

 private:
  std::span<const std::uint8_t> data_;
  Lz77Params params_;
  std::size_t window_size_;
  // One allocation holds the three tables below. Separate ones let glibc
  // trim and re-fault its heap on every construction for inputs of tens of
  // KB, the size of SZ chunk payloads and LeNet-scale index streams.
  std::unique_ptr<std::uint32_t[]> storage_;
  // bucket_start_[h] .. bucket_start_[h + 1] is hash h's run of positions_.
  std::span<std::uint32_t> bucket_start_;
  // Every indexed position, ordered by (hash, position).
  std::span<std::uint32_t> positions_;
  // rank_[p]: the slot of position p in positions_.
  std::span<std::uint32_t> rank_;
};

}  // namespace deepsz::lossless
