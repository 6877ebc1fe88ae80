#include "train/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "codec/registry.h"
#include "core/container_wire.h"
#include "util/byte_io.h"
#include "util/crc32.h"

namespace deepsz::train {
namespace {

constexpr std::uint32_t kMagic = 0x4b5a5344;        // "DSZK"
constexpr std::uint32_t kFooterMagic = 0x465a5344;  // "DSZF"
constexpr std::uint32_t kVersion = 1;

// Per-stream footer table row: u64 offset + u64 length + u32 crc.
constexpr std::size_t kFooterRowBytes = 8 + 8 + 4;
// Footer tail after the table: u32 count + u32 table crc + u32 magic.
constexpr std::size_t kFooterTailBytes = 4 + 4 + 4;

// Decoded-element ceiling per stream. Checkpoints of the zoo models are a
// few million elements; anything near this cap is a forged count, and the
// cap keeps count*sizeof(float) far from size_t overflow.
constexpr std::uint64_t kMaxStreamCount = 1ull << 32;

constexpr std::uint8_t kFlagMasked = 0x01;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

bool valid_kind(std::uint8_t k) {
  return k <= static_cast<std::uint8_t>(StreamKind::kFloats);
}

std::vector<float> bytes_to_floats(std::span<const std::uint8_t> bytes) {
  if (bytes.size() % 4 != 0) fail("float stream length not a multiple of 4");
  std::vector<float> out(bytes.size() / 4);
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

struct EncodedStream {
  std::vector<std::uint8_t> payload;
  std::string codec;
  double eb = 0.0;
  std::uint64_t count = 0;
};

EncodedStream encode_stream(const CheckpointStream& s,
                            const CheckpointOptions& options) {
  auto& reg = codec::CodecRegistry::instance();
  EncodedStream enc;
  switch (s.kind) {
    case StreamKind::kFcData: {
      auto it = options.eb.find(s.name);
      enc.eb = it != options.eb.end() ? it->second : options.default_eb;
      if (!(enc.eb >= 0.0) || !std::isfinite(enc.eb)) {
        throw std::invalid_argument("checkpoint: bad error bound for stream " +
                                    s.name);
      }
      enc.codec = options.data_codec;
      enc.count = s.floats.size();
      enc.payload = reg.make_float(enc.codec)->encode(
          s.floats, codec::FloatParams{enc.eb});
      break;
    }
    case StreamKind::kFcIndex: {
      enc.codec = options.lossless_codec;
      enc.count = s.bytes.size();
      enc.payload = reg.make_byte(enc.codec)->encode(s.bytes);
      break;
    }
    case StreamKind::kFloats: {
      enc.codec = options.lossless_codec;
      enc.count = s.floats.size();
      enc.payload =
          reg.make_byte(enc.codec)->encode(core::wire::float_bytes(s.floats));
      break;
    }
  }
  return enc;
}

}  // namespace

const CheckpointStream* TrainingState::find(const std::string& name) const {
  for (const auto& s : streams) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::uint8_t> write_checkpoint(const TrainingState& state,
                                           const CheckpointOptions& options) {
  for (const auto& s : state.streams) {
    if (s.name.empty()) {
      throw std::invalid_argument("checkpoint: stream with empty name");
    }
    if (s.kind == StreamKind::kFcData || s.kind == StreamKind::kFcIndex) {
      if (s.rows <= 0 || s.cols <= 0) {
        throw std::invalid_argument("checkpoint: fc stream " + s.name +
                                    " needs positive rows/cols");
      }
    }
  }

  std::vector<std::uint8_t> out;
  util::put_le<std::uint32_t>(out, kMagic);
  util::put_le<std::uint32_t>(out, kVersion);
  util::put_string(out, state.model);
  util::put_le<std::uint64_t>(out, state.seed);
  util::put_le<std::uint64_t>(out, static_cast<std::uint64_t>(state.step));
  util::put_le<std::uint64_t>(out,
                              static_cast<std::uint64_t>(state.samples_seen));
  util::put_le<std::uint32_t>(out,
                              static_cast<std::uint32_t>(state.streams.size()));

  struct Row {
    std::uint64_t offset, length;
    std::uint32_t crc;
  };
  std::vector<Row> table;
  table.reserve(state.streams.size());

  for (const auto& s : state.streams) {
    EncodedStream enc = encode_stream(s, options);
    util::put_string(out, s.name);
    util::put_le<std::uint8_t>(out, static_cast<std::uint8_t>(s.kind));
    util::put_le<std::uint8_t>(out, s.masked ? kFlagMasked : 0);
    util::put_le<std::int64_t>(out, s.rows);
    util::put_le<std::int64_t>(out, s.cols);
    util::put_le<std::uint64_t>(out, enc.count);
    util::put_string(out, enc.codec);
    util::put_le<double>(out, enc.eb);
    util::put_le<std::uint64_t>(out, enc.payload.size());
    std::uint32_t crc = util::crc32(enc.payload);
    util::put_le<std::uint32_t>(out, crc);
    table.push_back(Row{out.size(), enc.payload.size(), crc});
    util::put_bytes(out, enc.payload);
  }

  util::put_le<std::uint32_t>(out, util::crc32(out));  // body crc

  std::size_t table_start = out.size();
  for (const Row& r : table) {
    util::put_le<std::uint64_t>(out, r.offset);
    util::put_le<std::uint64_t>(out, r.length);
    util::put_le<std::uint32_t>(out, r.crc);
  }
  util::put_le<std::uint32_t>(out, static_cast<std::uint32_t>(table.size()));
  util::put_le<std::uint32_t>(
      out, util::crc32({out.data() + table_start, out.size() - table_start}));
  util::put_le<std::uint32_t>(out, kFooterMagic);
  return out;
}

CheckpointReader::CheckpointReader(std::span<const std::uint8_t> bytes)
    : bytes_(bytes) {
  if (bytes.size() < kFooterTailBytes) fail("shorter than footer tail");

  // Footer tail: count + table crc + magic, then the table right before it.
  const std::uint8_t* tail = bytes.data() + bytes.size() - kFooterTailBytes;
  std::uint32_t n_footer, table_crc, magic;
  std::memcpy(&n_footer, tail, 4);
  std::memcpy(&table_crc, tail + 4, 4);
  std::memcpy(&magic, tail + 8, 4);
  if (magic != kFooterMagic) fail("bad footer magic");
  // The table must physically fit in front of the tail; this caps n_footer
  // by the payload actually present before any allocation sized from it.
  if (n_footer > (bytes.size() - kFooterTailBytes) / kFooterRowBytes) {
    fail("footer count exceeds file size");
  }
  std::size_t table_bytes = std::size_t{n_footer} * kFooterRowBytes;
  std::size_t table_start = bytes.size() - kFooterTailBytes - table_bytes;
  if (util::crc32(bytes.subspan(table_start, table_bytes + 4)) != table_crc) {
    fail("footer table checksum mismatch");
  }

  // ByteReader overruns throw std::out_of_range; for an untrusted file every
  // parse failure must surface as the one documented runtime_error type.
  try {
    parse_records(bytes, n_footer, table_start, table_bytes);
  } catch (const std::out_of_range&) {
    fail("truncated record section");
  }
}

void CheckpointReader::parse_records(std::span<const std::uint8_t> bytes,
                                     std::uint32_t n_footer,
                                     std::size_t table_start,
                                     std::size_t table_bytes) {
  util::ByteReader r(bytes);
  if (r.get<std::uint32_t>() != kMagic) fail("bad magic");
  std::uint32_t version = r.get<std::uint32_t>();
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  model_ = r.get_string();
  seed_ = r.get<std::uint64_t>();
  step_ = static_cast<std::int64_t>(r.get<std::uint64_t>());
  samples_seen_ = static_cast<std::int64_t>(r.get<std::uint64_t>());
  if (step_ < 0 || samples_seen_ < 0) fail("negative step counter");
  std::uint32_t n_streams = r.get<std::uint32_t>();
  if (n_streams != n_footer) fail("header/footer stream count mismatch");

  entries_.reserve(n_footer);  // capped by file size above
  for (std::uint32_t i = 0; i < n_streams; ++i) {
    CheckpointEntry e;
    e.name = r.get_string();
    if (e.name.empty()) fail("stream with empty name");
    std::uint8_t kind = r.get<std::uint8_t>();
    if (!valid_kind(kind)) fail("unknown stream kind");
    e.kind = static_cast<StreamKind>(kind);
    std::uint8_t flags = r.get<std::uint8_t>();
    if ((flags & ~kFlagMasked) != 0) fail("unknown stream flags");
    e.masked = (flags & kFlagMasked) != 0;
    e.rows = r.get<std::int64_t>();
    e.cols = r.get<std::int64_t>();
    bool fc = e.kind == StreamKind::kFcData || e.kind == StreamKind::kFcIndex;
    if (fc && (e.rows <= 0 || e.cols <= 0)) fail("fc stream with bad shape");
    if (!fc && (e.rows != 0 || e.cols != 0)) fail("flat stream with shape");
    e.count = r.get<std::uint64_t>();
    if (e.count > kMaxStreamCount) fail("stream count exceeds cap");
    e.codec = r.get_string();
    e.eb = r.get<double>();
    if (!std::isfinite(e.eb) || e.eb < 0.0) fail("bad error bound");
    e.length = r.get<std::uint64_t>();
    e.crc = r.get<std::uint32_t>();
    e.offset = r.pos();
    r.get_bytes(static_cast<std::size_t>(e.length));  // skip, bounds-checked
    if (!by_name_.emplace(e.name, entries_.size()).second) {
      fail("duplicate stream name " + e.name);
    }
    entries_.push_back(std::move(e));
  }

  body_crc_offset_ = r.pos();
  body_crc_ = r.get<std::uint32_t>();
  if (r.pos() != table_start) fail("record section does not meet footer");

  // Cross-check the scanned records against the footer table: the footer is
  // the seek index, so it must agree byte-for-byte with the record headers.
  util::ByteReader ft(bytes.subspan(table_start, table_bytes));
  for (const CheckpointEntry& e : entries_) {
    auto offset = ft.get<std::uint64_t>();
    auto length = ft.get<std::uint64_t>();
    auto crc = ft.get<std::uint32_t>();
    if (offset != e.offset || length != e.length || crc != e.crc) {
      fail("footer entry disagrees with record header for " + e.name);
    }
  }
}

bool CheckpointReader::contains(const std::string& name) const {
  return by_name_.count(name) != 0;
}

std::size_t CheckpointReader::payload_bytes() const {
  std::size_t total = 0;
  for (const auto& e : entries_) total += static_cast<std::size_t>(e.length);
  return total;
}

void CheckpointReader::verify_body_crc() const {
  if (util::crc32(bytes_.subspan(0, body_crc_offset_)) != body_crc_) {
    fail("body checksum mismatch");
  }
}

CheckpointStream CheckpointReader::decode_stream(std::size_t i) const {
  if (i >= entries_.size()) {
    throw std::out_of_range("checkpoint: stream index out of range");
  }
  const CheckpointEntry& e = entries_[i];
  auto payload =
      bytes_.subspan(static_cast<std::size_t>(e.offset),
                     static_cast<std::size_t>(e.length));
  if (util::crc32(payload) != e.crc) {
    fail("payload checksum mismatch for " + e.name);
  }

  // Codec specs inside the file are untrusted; the registry's
  // invalid_argument for an unknown name must not escape as a logic error.
  auto& reg = codec::CodecRegistry::instance();
  auto make_float = [&](const std::string& spec) {
    try {
      return reg.make_float(spec);
    } catch (const std::invalid_argument& ex) {
      fail(std::string("bad codec spec: ") + ex.what());
    }
  };
  auto make_byte = [&](const std::string& spec) {
    try {
      return reg.make_byte(spec);
    } catch (const std::invalid_argument& ex) {
      fail(std::string("bad codec spec: ") + ex.what());
    }
  };
  CheckpointStream s;
  s.name = e.name;
  s.kind = e.kind;
  s.masked = e.masked;
  s.rows = e.rows;
  s.cols = e.cols;
  s.eb = e.eb;
  s.codec = e.codec;
  switch (e.kind) {
    case StreamKind::kFcData:
      s.floats = make_float(e.codec)->decode(payload);
      if (s.floats.size() != e.count) {
        fail("decoded element count mismatch for " + e.name);
      }
      break;
    case StreamKind::kFcIndex: {
      auto raw = make_byte(e.codec)->decode(payload);
      if (raw.size() != e.count) {
        fail("decoded element count mismatch for " + e.name);
      }
      s.bytes = std::move(raw);
      break;
    }
    case StreamKind::kFloats: {
      auto raw = make_byte(e.codec)->decode(payload);
      if (raw.size() != e.count * 4) {
        fail("decoded element count mismatch for " + e.name);
      }
      s.floats = bytes_to_floats(raw);
      break;
    }
  }
  return s;
}

CheckpointStream CheckpointReader::decode_stream(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) fail("no stream named " + name);
  return decode_stream(it->second);
}

TrainingState read_checkpoint(std::span<const std::uint8_t> bytes) {
  CheckpointReader reader(bytes);
  reader.verify_body_crc();
  TrainingState state;
  state.model = reader.model();
  state.seed = reader.seed();
  state.step = reader.step();
  state.samples_seen = reader.samples_seen();
  state.streams.reserve(reader.num_streams());
  for (std::size_t i = 0; i < reader.num_streams(); ++i) {
    state.streams.push_back(reader.decode_stream(i));
  }
  return state;
}

void write_checkpoint_file(const std::string& path, const TrainingState& state,
                           const CheckpointOptions& options) {
  auto bytes = write_checkpoint(state, options);
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) fail("cannot open " + tmp + " for writing");
  std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    fail("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename " + tmp + " to " + path);
  }
}

TrainingState read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) fail("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) fail("read error on " + path);
  return read_checkpoint(bytes);
}

}  // namespace deepsz::train
