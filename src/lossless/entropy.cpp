#include "lossless/entropy.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>
#include <stdexcept>

namespace deepsz::lossless {
namespace {

int bit_width_for(std::size_t alphabet) {
  if (alphabet <= 1) return 1;
  return std::bit_width(alphabet - 1);
}

}  // namespace

std::uint32_t reverse_bits(std::uint32_t v, int nbits) {
  std::uint32_t r = 0;
  for (int i = 0; i < nbits; ++i) {
    r = (r << 1) | (v & 1u);
    v >>= 1;
  }
  return r;
}

std::vector<int> build_code_lengths(std::span<const std::uint64_t> freq,
                                    int max_len) {
  const std::size_t n = freq.size();
  std::vector<int> lengths(n, 0);

  std::vector<std::uint32_t> present;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (freq[s] > 0) present.push_back(s);
  }
  if (present.empty()) return lengths;
  if (present.size() == 1) {
    lengths[present[0]] = 1;
    return lengths;
  }

  // Standard heap-based Huffman tree construction over present symbols.
  struct Node {
    std::uint64_t weight;
    int index;  // < n_present: leaf; otherwise internal
  };
  auto cmp = [](const Node& a, const Node& b) { return a.weight > b.weight; };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);

  const int n_present = static_cast<int>(present.size());
  std::vector<int> parent(2 * n_present - 1, -1);
  for (int i = 0; i < n_present; ++i) {
    heap.push({freq[present[i]], i});
  }
  int next_internal = n_present;
  while (heap.size() > 1) {
    Node a = heap.top();
    heap.pop();
    Node b = heap.top();
    heap.pop();
    parent[a.index] = next_internal;
    parent[b.index] = next_internal;
    heap.push({a.weight + b.weight, next_internal});
    ++next_internal;
  }

  // Depth of each leaf = code length.
  std::vector<int> depth(2 * n_present - 1, 0);
  for (int i = next_internal - 2; i >= 0; --i) {
    depth[i] = depth[parent[i]] + 1;
  }
  for (int i = 0; i < n_present; ++i) {
    lengths[present[i]] = depth[i];
  }

  // Length limiting by Kraft-sum repair: clip overlong codes to max_len, then
  // lengthen the shortest codes until the Kraft inequality holds again.
  bool clipped = false;
  for (auto s : present) {
    if (lengths[s] > max_len) {
      lengths[s] = max_len;
      clipped = true;
    }
  }
  if (clipped) {
    const std::uint64_t target = 1ull << max_len;
    auto kraft = [&] {
      std::uint64_t k = 0;
      for (auto s : present) k += 1ull << (max_len - lengths[s]);
      return k;
    };
    std::uint64_t k = kraft();
    while (k > target) {
      // Lengthening a code of length L reduces the sum by 2^(max_len-L-1);
      // pick the longest code below max_len to minimize the rate damage.
      int best = -1;
      for (auto s : present) {
        if (lengths[s] < max_len && (best < 0 || lengths[s] > lengths[best])) {
          best = static_cast<int>(s);
        }
      }
      assert(best >= 0);
      k -= 1ull << (max_len - lengths[best] - 1);
      ++lengths[best];
    }
  }
  return lengths;
}

void HuffmanEncoder::init(std::span<const std::uint64_t> freq, int max_len) {
  lengths_ = build_code_lengths(freq, max_len);
  codes_.assign(lengths_.size(), 0);

  // Canonical code assignment in (length, symbol) order.
  std::vector<std::uint32_t> bl_count(max_len + 1, 0);
  for (int l : lengths_) {
    if (l > 0) ++bl_count[l];
  }
  std::vector<std::uint32_t> next_code(max_len + 2, 0);
  std::uint32_t code = 0;
  for (int l = 1; l <= max_len; ++l) {
    code = (code + bl_count[l - 1]) << 1;
    next_code[l] = code;
  }
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    int l = lengths_[s];
    if (l > 0) {
      codes_[s] = reverse_bits(next_code[l]++, l);
    }
  }
}

void HuffmanEncoder::write_table(util::BitWriter& bw) const {
  const int sym_bits = bit_width_for(lengths_.size());
  std::uint32_t n_present = 0;
  for (int l : lengths_) {
    if (l > 0) ++n_present;
  }
  bw.write_bits(lengths_.size(), 32);
  bw.write_bits(n_present, 32);
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) {
      bw.write_bits(s, sym_bits);
      bw.write_bits(static_cast<std::uint32_t>(lengths_[s]), 5);
    }
  }
}

void HuffmanDecoder::read_table(util::BitReader& br,
                                std::size_t max_alphabet) {
  auto alphabet = static_cast<std::size_t>(br.read_bits(32));
  auto n_present = static_cast<std::size_t>(br.read_bits(32));
  if (alphabet > max_alphabet) {
    throw std::runtime_error(
        "HuffmanDecoder: table alphabet exceeds the caller's symbol range");
  }
  if (alphabet > (1u << 26)) {
    throw std::runtime_error("HuffmanDecoder: implausible alphabet size");
  }
  if (n_present > alphabet) {
    throw std::runtime_error("HuffmanDecoder: more codes than symbols");
  }
  // Only the listed pairs are kept: a forged alphabet costs nothing until
  // real table bits back it (reads past the end yield zero lengths, which
  // are rejected).
  const int sym_bits = bit_width_for(alphabet);
  std::vector<SymbolLength> codes;
  for (std::size_t i = 0; i < n_present; ++i) {
    auto sym = static_cast<std::uint32_t>(br.read_bits(sym_bits));
    auto len = static_cast<int>(br.read_bits(5));
    if (sym >= alphabet || len == 0 || len > kMaxCodeLen) {
      throw std::runtime_error("HuffmanDecoder: corrupt code table");
    }
    codes.push_back({sym, len});
  }
  build(alphabet, std::move(codes));
}

void HuffmanDecoder::init_from_lengths(std::span<const int> lengths) {
  std::vector<SymbolLength> codes;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) {
      codes.push_back({static_cast<std::uint32_t>(s), lengths[s]});
    }
  }
  build(lengths.size(), std::move(codes));
}

void HuffmanDecoder::build(std::size_t alphabet,
                           std::vector<SymbolLength> codes) {
  // Canonical order is (length, symbol). Sorting by symbol first exposes
  // repeats as neighbours; the stable sort by length then keeps symbol
  // order within each length.
  std::sort(codes.begin(), codes.end(),
            [](const SymbolLength& a, const SymbolLength& b) {
              return a.symbol < b.symbol;
            });
  for (std::size_t i = 1; i < codes.size(); ++i) {
    if (codes[i].symbol == codes[i - 1].symbol) {
      throw std::runtime_error("HuffmanDecoder: repeated symbol in table");
    }
  }
  std::stable_sort(codes.begin(), codes.end(),
                   [](const SymbolLength& a, const SymbolLength& b) {
                     return a.length < b.length;
                   });

  alphabet_ = alphabet;
  max_len_ = codes.empty() ? 0 : codes.back().length;
  count_.assign(max_len_ + 1, 0);
  sorted_symbols_.clear();
  sorted_symbols_.reserve(codes.size());
  for (const auto& c : codes) {
    ++count_[c.length];
    sorted_symbols_.push_back(c.symbol);
  }
  // Kraft: the codes must fit the code space (sum of 2^-length <= 1). An
  // over-subscribed table is corrupt; rejecting it keeps every canonical
  // code below 2^length, so the codes neither overlap nor wrap.
  std::uint64_t kraft = 0;
  for (int l = 1; l <= max_len_; ++l) {
    kraft += std::uint64_t{count_[l]} << (max_len_ - l);
  }
  if (kraft > std::uint64_t{1} << max_len_) {
    throw std::runtime_error("HuffmanDecoder: over-subscribed code table");
  }
  // Same canonical recurrence as the encoder (count_[0] == 0, so
  // first_code_[1] == 0).
  first_code_.assign(max_len_ + 2, 0);
  offset_.assign(max_len_ + 2, 0);
  std::uint32_t code = 0, idx = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code + count_[l - 1]) << 1;
    first_code_[l] = code;
    offset_[l] = idx;
    idx += count_[l];
  }

  // Every code of at most table_bits_ bits fills each table index whose low
  // `length` bits are its bit-reversed code; longer codes and prefixes no
  // code covers stay 0 and take the walk.
  table_bits_ = std::min(kMaxTableBits, max_len_);
  table_.assign(std::size_t{1} << table_bits_, 0);
  for (int l = 1; l <= table_bits_; ++l) {
    for (std::uint32_t i = 0; i < count_[l]; ++i) {
      const std::uint32_t entry =
          sorted_symbols_[offset_[l] + i] << kLenBits |
          static_cast<std::uint32_t>(l);
      for (std::size_t at = reverse_bits(first_code_[l] + i, l);
           at < table_.size(); at += std::size_t{1} << l) {
        table_[at] = entry;
      }
    }
  }
}

std::uint32_t HuffmanDecoder::walk(std::uint64_t bits) const {
  std::uint32_t code = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code << 1) | static_cast<std::uint32_t>((bits >> (l - 1)) & 1u);
    std::uint32_t rel = code - first_code_[l];
    if (code >= first_code_[l] && rel < count_[l]) {
      return sorted_symbols_[offset_[l] + rel] << kLenBits |
             static_cast<std::uint32_t>(l);
    }
  }
  throw std::runtime_error("HuffmanDecoder: invalid code in stream");
}

inline std::uint32_t HuffmanDecoder::decode_one(util::BitReader& br) const {
  std::uint32_t entry = table_[br.peek_bits(table_bits_)];
  if ((entry & kLenMask) == 0) [[unlikely]] {
    entry = walk(br.peek_bits(max_len_));
  }
  br.skip_bits(static_cast<int>(entry & kLenMask));
  return entry >> kLenBits;
}

std::uint32_t HuffmanDecoder::decode(util::BitReader& br) const {
  return decode_one(br);
}

void HuffmanDecoder::decode(util::BitReader& br,
                            std::span<std::uint32_t> out) const {
  // A local copy whose address never escapes: the compiler keeps its bit
  // buffer in registers instead of reloading it around every output store.
  util::BitReader local = br;
  for (auto& s : out) s = decode_one(local);
  br = local;
}

std::vector<std::uint8_t> huffman_encode_symbols(
    std::span<const std::uint32_t> symbols, std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (auto s : symbols) ++freq[s];
  HuffmanEncoder enc;
  enc.init(freq);
  util::BitWriter bw;
  enc.write_table(bw);
  for (auto s : symbols) enc.encode(bw, s);
  return bw.finish();
}

std::vector<std::uint32_t> huffman_decode_symbols(
    std::span<const std::uint8_t> bytes, std::size_t count,
    std::size_t max_alphabet) {
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  dec.read_table(br, max_alphabet);
  std::vector<std::uint32_t> out(count);
  dec.decode(br, out);
  return out;
}

}  // namespace deepsz::lossless
