#include "util/crc32.h"

#include <array>

namespace deepsz::util {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight table lookups advance the
/// CRC over eight bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// The four bytes at `p` as a little-endian word, whatever the host order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t c = seed ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace deepsz::util
