// The DSZC container family's wire constants and its one writer. Both
// encoders (encode_model in model_codec.cpp, encode_delta_model in
// delta_codec.cpp) write every stream, bias and footer through the functions
// below, and ContainerReader (model_codec.cpp) is the only reader of what
// they write; tests that forge footers build them here too, so the footer
// layout is spelled out once per direction. Outside core/ only float_bytes
// is used (the serving store checks a CRC pin, the checkpoint writer encodes
// float streams); everything else goes through the public model_codec.h API.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/model_codec.h"

namespace deepsz::core::wire {

inline constexpr std::uint32_t kMagic = 0x435a5344;  // "DSZC"
// Version 2: implicit SZ data stream + lossless index frame per layer.
// Version 3: per-stream registry codec specs (container v2 of the redesign).
// Version 4: delta container — header names a base container (base_id +
//            base_crc) and each record carries a full|same|delta kind tag.
inline constexpr std::uint32_t kVersionLegacy = 2;
inline constexpr std::uint32_t kVersionCurrent = 3;
inline constexpr std::uint32_t kVersionDelta = 4;

// Seekable-index footer: [body][crc32(body) u32][body_len u64][magic u32].
inline constexpr std::uint32_t kFooterMagic = 0x585a5344;  // "DSZX"
inline constexpr std::size_t kTrailerBytes = 16;
inline constexpr std::size_t kHeaderBytes = 12;  // magic + version + count
// The v4 header additionally carries base_id (u64-length string) + base_crc;
// its end is computed while parsing, kHeaderBytes stays the fixed prefix.

/// Float array viewed as its in-memory (little-endian) byte image — the
/// representation all CRC pins of decoded data/bias arrays are taken over.
inline std::span<const std::uint8_t> float_bytes(std::span<const float> v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(float)};
}

/// Appends one stream — codec spec, payload length (u64), CRC-32 (u32),
/// payload — and records the spec, length, CRC and the payload's absolute
/// offset in `out` in `ref`.
void put_stream(std::vector<std::uint8_t>& out, const std::string& codec,
                std::span<const std::uint8_t> payload, StreamRef& ref);

/// Appends a record's bias — count (u64), then the raw fp32 values — and
/// records its extent in `entry` (offset 0 when empty).
void put_bias(std::vector<std::uint8_t>& out, std::span<const float> bias,
              ContainerEntry& entry);

/// The footer index body: the entry count, then each entry's v3 fields
/// (name, shape, eb, data and index streams, bias extent), followed for a
/// version-4 container by the delta fields (kind and mask tags, correction
/// stream, CRC pins).
std::vector<std::uint8_t> footer_body(std::uint32_t version,
                                      std::span<const ContainerEntry> entries);

/// Appends the footer: `body`, then its trailer (CRC-32, length, magic).
void put_footer(std::vector<std::uint8_t>& out,
                std::span<const std::uint8_t> body);

}  // namespace deepsz::core::wire

namespace deepsz::core {

/// The per-layer fan-out of encode_model, decode_model and
/// encode_delta_model: fn(i) for i in [0, n), serially when `parallel` is
/// false, else through util::parallel_for, which rethrows the lowest-index
/// exception here. Codec work inside fn may parallel_for over its own
/// blocks; nested loops run inline on pool workers, so layer- and
/// block-level parallelism compose without oversubscription.
void for_each_layer(std::size_t n, bool parallel,
                    const std::function<void(std::size_t)>& fn);

}  // namespace deepsz::core
