// An identity byte codec that counts its decode() calls, for tests that
// prove how many codec runs a read path costs.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "codec/registry.h"

namespace deepsz::testing {

/// Frames data as [tag][data]; decode() checks the tag and counts the call.
class CountingCodec : public codec::ByteCodec {
 public:
  CountingCodec(std::string name, std::uint8_t tag, std::atomic<int>& decodes)
      : name_(std::move(name)), tag_(tag), decodes_(decodes) {}

  std::string name() const override { return name_; }

  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    std::vector<std::uint8_t> out(data.size() + 1);
    out[0] = tag_;
    if (!data.empty()) std::memcpy(out.data() + 1, data.data(), data.size());
    return out;
  }

  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    if (frame.empty() || frame[0] != tag_) {
      throw std::runtime_error(name_ + ": bad frame");
    }
    ++decodes_;
    return std::vector<std::uint8_t>(frame.begin() + 1, frame.end());
  }

 private:
  std::string name_;
  std::uint8_t tag_;
  std::atomic<int>& decodes_;
};

/// Registers a CountingCodec as `name` with frame tag `tag`, once per
/// process, and returns its decode counter.
inline std::atomic<int>& register_counting_codec(const std::string& name,
                                                 std::uint8_t tag) {
  static std::map<std::string, std::atomic<int>> counters;
  auto [it, inserted] = counters.try_emplace(name, 0);
  std::atomic<int>& decodes = it->second;
  if (inserted) {
    codec::CodecInfo info;
    info.name = name;
    info.summary = "decode-counting identity codec (tests)";
    codec::CodecRegistry::instance().register_byte(
        info, [name, tag, &decodes](const codec::Options& opts) {
          opts.check_known({});
          return std::make_shared<CountingCodec>(name, tag, decodes);
        });
  }
  return decodes;
}

}  // namespace deepsz::testing
