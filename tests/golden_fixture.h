// Shared helpers for the golden-fixture tests: read a checked-in file from
// tests/fixtures/ and CRC a decoded float array the way the pinned
// constants were computed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"

namespace deepsz::testing {

inline std::vector<std::uint8_t> read_fixture(const std::string& name) {
  const std::string path = std::string(DEEPSZ_FIXTURE_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    ADD_FAILURE() << "missing fixture " << path;
    return {};
  }
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

inline std::uint32_t float_crc(const std::vector<float>& v) {
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()),
      v.size() * sizeof(float)));
}

}  // namespace deepsz::testing
