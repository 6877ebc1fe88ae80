// Footer surgery for container tests, through the container's own writer
// (core/container_wire.h): cut a container back to its records, or append a
// CRC-correct footer over (possibly forged) entries so a test reaches the
// semantic checks behind the footer checksum.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/container_wire.h"
#include "core/model_codec.h"
#include "util/byte_io.h"

namespace deepsz::testing {

/// The container cut at the end of its records: an indexless container,
/// which ContainerReader reads by scanning the records.
inline std::vector<std::uint8_t> strip_footer(std::vector<std::uint8_t> bytes) {
  if (bytes.size() < core::wire::kTrailerBytes) {
    throw std::logic_error("strip_footer: no footer trailer");
  }
  util::ByteReader trailer(std::span<const std::uint8_t>(bytes).last(
      core::wire::kTrailerBytes));
  trailer.get<std::uint32_t>();  // body CRC
  const auto body_len = trailer.get<std::uint64_t>();
  if (trailer.get<std::uint32_t>() != core::wire::kFooterMagic ||
      body_len > bytes.size() - core::wire::kTrailerBytes) {
    throw std::logic_error("strip_footer: no footer trailer");
  }
  bytes.resize(bytes.size() - core::wire::kTrailerBytes -
               static_cast<std::size_t>(body_len));
  return bytes;
}

/// Appends a CRC-correct version-3 footer listing `entries` to an indexless
/// container.
inline std::vector<std::uint8_t> with_footer(
    std::vector<std::uint8_t> bytes,
    const std::vector<core::ContainerEntry>& entries) {
  core::wire::put_footer(
      bytes, core::wire::footer_body(core::wire::kVersionCurrent, entries));
  return bytes;
}

}  // namespace deepsz::testing
