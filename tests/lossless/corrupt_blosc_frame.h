// A blosc frame whose decode throws inside a pool task. 64 KiB at typesize 1
// over 4 KiB blocks is 16 independently decoded blocks; one byte of the last
// block is flipped, so decoding that block fails with "blosc_like: literal
// overrun". With a multi-worker pool (ctest sets DEEPSZ_THREADS=4) the
// blocks decode as pool tasks, so the frame checks that a task's exception
// reaches the caller as std::runtime_error instead of terminating the
// process.
#pragma once

#include <cstdint>
#include <vector>

#include "lossless/codec.h"

namespace deepsz::testing {

inline std::vector<std::uint8_t> corrupt_multi_block_blosc_frame() {
  std::vector<std::uint8_t> data(64 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 16);
  }
  auto frame = lossless::compress_blosc(
      data, lossless::BloscOptions{.typesize = 1, .block_size = 4096});
  frame[frame.size() - 10] ^= 0xFF;  // inside the last block's literals
  return frame;
}

}  // namespace deepsz::testing
