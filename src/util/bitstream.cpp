#include "util/bitstream.h"

#include <cassert>

namespace deepsz::util {

void BitWriter::write_bits(std::uint64_t value, int nbits) {
  assert(nbits >= 0 && nbits <= 57);
  if (nbits == 0) return;
  buf_ |= (value & ((nbits == 64 ? ~0ull : ((1ull << nbits) - 1)))) << nbuf_;
  nbuf_ += nbits;
  while (nbuf_ >= 8) {
    bytes_.push_back(static_cast<std::uint8_t>(buf_ & 0xffu));
    buf_ >>= 8;
    nbuf_ -= 8;
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (nbuf_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(buf_ & 0xffu));
    buf_ = 0;
    nbuf_ = 0;
  }
  return std::move(bytes_);
}

}  // namespace deepsz::util
