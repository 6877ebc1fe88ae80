// Corrupt input whose decode fails inside a pool task must surface as
// std::runtime_error on the caller, never terminate the process. A blosc
// frame of 16 blocks decodes its blocks through util::parallel_for; before
// parallel_for carried its own error contract, a block that threw on a pool
// worker called std::terminate — through a bare lossless::decompress, and
// through ModelStore::get, which in the daemon runs on a scheduler worker.
// ctest sets DEEPSZ_THREADS=4, so these take the pooled path. (This suite
// runs under ASan+UBSan in the sanitizer CI job.)
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "lossless/codec.h"
#include "serve/model_store.h"
#include "tests/core/container_footer.h"
#include "tests/lossless/corrupt_blosc_frame.h"
#include "util/crc32.h"

namespace deepsz::serve {
namespace {

TEST(PooledDecodeCorrupt, MultiBlockBloscFrameThrows) {
  const auto frame = testing::corrupt_multi_block_blosc_frame();
  ASSERT_EQ(frame[0], static_cast<std::uint8_t>(lossless::CodecId::kBloscLike));
  try {
    lossless::decompress(frame);
    FAIL() << "corrupt blosc block accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("blosc_like:"), std::string::npos)
        << e.what();
  }
}

TEST(PooledDecodeCorrupt, ModelStoreGetOnForgedIndexStreamThrows) {
  // 65536 stored positions make a 64 KiB index array, which the container's
  // blosc index codec writes as 16 blocks. Flip a byte of the last block and
  // re-sign the stream CRC in the footer, so the corruption passes the
  // checksum gate and reaches the pooled block decode.
  sparse::PrunedLayer layer;
  layer.name = "fc1";
  layer.rows = 256;
  layer.cols = 256;
  layer.index.assign(256 * 256, 1);
  layer.data.assign(layer.index.size(), 0.5f);
  core::ContainerOptions copts;
  copts.index_codec = "blosc:typesize=1,block_size=4096";
  auto bytes = testing::strip_footer(
      core::encode_model({layer}, {}, copts).bytes);

  auto entries = core::ContainerReader(bytes).entries();
  ASSERT_EQ(entries.size(), 1u);
  auto& index = entries[0].index;
  const auto stream = std::span<std::uint8_t>(bytes).subspan(
      static_cast<std::size_t>(index.offset),
      static_cast<std::size_t>(index.length));
  ASSERT_EQ(stream[0], static_cast<std::uint8_t>(lossless::CodecId::kBloscLike));
  stream[stream.size() - 1] ^= 0xFF;  // the last block's final token
  index.crc = util::crc32(stream);

  ModelStore store(testing::with_footer(std::move(bytes), entries));
  try {
    store.get("fc1");
    FAIL() << "corrupt index stream accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("blosc_like:"), std::string::npos)
        << e.what();
  }
  // The failure is clean, not sticky: the store still answers.
  EXPECT_THROW(store.get("fc1"), std::runtime_error);
}

}  // namespace
}  // namespace deepsz::serve
