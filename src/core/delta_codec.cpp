#include "core/delta_codec.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "codec/registry.h"
#include "core/container_wire.h"
#include "util/byte_io.h"
#include "util/crc32.h"

namespace deepsz::core {
namespace {

using wire::float_bytes;

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// One layer's planned record: kind decision plus every encoded stream.
struct LayerPlan {
  LayerKind kind = LayerKind::kFull;
  MaskMode mask_mode = MaskMode::kSameAsBase;
  std::string name;
  std::int64_t rows = 0, cols = 0;
  double eb = 0.0;
  std::string data_codec, index_codec, corr_codec;
  std::vector<std::uint8_t> data;   // full data copy / residual stream
  std::vector<std::uint8_t> index;  // full index / mask-delta stream
  std::vector<std::uint8_t> corr;   // bit-correction stream
  std::uint32_t base_data_crc = 0, base_index_crc = 0, base_bias_crc = 0;
  std::uint32_t recon_data_crc = 0, recon_index_crc = 0;
  std::vector<float> bias;  // stored verbatim (kFull / kDelta)
};

}  // namespace

std::size_t DeltaModel::count(LayerKind kind) const {
  std::size_t n = 0;
  for (const auto& s : stats) n += s.kind == kind ? 1 : 0;
  return n;
}

DeltaModel encode_delta_model(const ContainerReader& base,
                              std::span<const std::uint8_t> target_container,
                              const DeltaOptions& options) {
  if (base.is_delta() && base.base() == nullptr) {
    throw std::invalid_argument(
        "encode_delta_model: base delta chain is unresolved (set_base first)");
  }
  ContainerReader target(target_container);
  if (target.is_delta()) {
    throw std::invalid_argument(
        "encode_delta_model: target must be a full container, not a delta");
  }
  // Resolve specs up front so a bad option string fails before any decode.
  auto& registry = codec::CodecRegistry::instance();
  auto residual_codec = registry.make_float(options.residual_codec);
  auto zero_codec = registry.make_float("zero");
  auto lossless = registry.make_byte(options.lossless_codec);

  const std::size_t n = target.num_layers();
  std::vector<LayerPlan> plans(n);

  for_each_layer(n, options.parallel, [&](std::size_t i) {
    const auto& te = target.entry(i);
    auto& p = plans[i];
    p.name = te.name;
    p.rows = te.rows;
    p.cols = te.cols;

    auto tl = target.decode_layer(i);
    auto tbias = target.decode_bias(i);

    bool base_usable = base.contains(te.name);
    if (base_usable) {
      const auto& be = base.entry(te.name);
      base_usable = be.rows == te.rows && be.cols == te.cols;
    }
    sparse::PrunedLayer bl;
    std::vector<float> bbias;
    if (base_usable) {
      bl = base.decode_layer(te.name);
      bbias = base.decode_bias(te.name);
    }

    if (base_usable && bits_equal(bl.data, tl.data) && bl.index == tl.index &&
        bits_equal(bbias, tbias)) {
      p.kind = LayerKind::kSame;
      p.base_data_crc = util::crc32(float_bytes(bl.data));
      p.base_index_crc = util::crc32(bl.index);
      p.base_bias_crc = util::crc32(float_bytes(bbias));
      return;
    }

    if (!base_usable) {
      // Layer absent from the base (or reshaped): carry the target's own
      // record. The data stream is copied raw — re-encoding through a lossy
      // codec would change bits — the index re-compressed losslessly.
      p.kind = LayerKind::kFull;
      p.eb = te.eb;
      const auto raw = target.checked_data_stream(i);
      p.data.assign(raw.begin(), raw.end());
      p.data_codec = te.data.codec;
      p.index = lossless->encode(tl.index);
      p.index_codec = options.lossless_codec;
      p.bias = std::move(tbias);
      return;
    }

    p.kind = LayerKind::kDelta;
    p.eb = options.residual_eb > 0.0 ? options.residual_eb
                                     : (te.eb > 0.0 ? te.eb : 1e-3);
    const std::size_t count = tl.data.size();
    const std::size_t base_n = bl.data.size();
    std::vector<float> residual(count);
    for (std::size_t k = 0; k < count; ++k) {
      residual[k] = tl.data[k] - (k < base_n ? bl.data[k] : 0.0f);
    }

    // Close the loop: decode our own residual stream and store the XOR of
    // the bit patterns the decoder will see vs the target's. This is what
    // makes reconstruction bit-exact through any lossy residual codec.
    const auto tgt = float_bytes(tl.data);
    auto corr_against = [&](std::span<const float> decoded) {
      std::vector<float> approx(count);
      for (std::size_t k = 0; k < count; ++k) {
        approx[k] = (k < base_n ? bl.data[k] : 0.0f) + decoded[k];
      }
      std::vector<std::uint8_t> corr(count * sizeof(float));
      const auto app = float_bytes(approx);
      for (std::size_t k = 0; k < corr.size(); ++k) {
        corr[k] = tgt[k] ^ app[k];
      }
      return lossless->encode(corr);
    };

    // Plan A: error-bounded residual stream + whatever corrections its own
    // decode leaves over.
    auto data_a = residual_codec->encode(residual, codec::FloatParams{p.eb});
    auto decoded = residual_codec->decode(data_a);
    if (decoded.size() != count) {
      throw std::runtime_error(
          "encode_delta_model: residual codec changed the element count in " +
          te.name);
    }
    auto corr_a = corr_against(decoded);

    // Plan B: no residual at all — the corrections carry the change. When a
    // fine-tune leaves most decoded values bit-identical, the lossy plan's
    // predictor smears non-zero noise across every position while this
    // plan's XOR stream stays almost entirely zero. Keep whichever is
    // smaller on the wire.
    auto data_b = zero_codec->encode(residual, codec::FloatParams{});
    auto corr_b = corr_against(std::vector<float>(count, 0.0f));

    if (data_b.size() + corr_b.size() < data_a.size() + corr_a.size()) {
      p.data = std::move(data_b);
      p.data_codec = "zero";
      p.corr = std::move(corr_b);
    } else {
      p.data = std::move(data_a);
      p.data_codec = options.residual_codec;
      p.corr = std::move(corr_a);
    }
    p.corr_codec = options.lossless_codec;

    if (tl.index == bl.index) {
      p.mask_mode = MaskMode::kSameAsBase;
    } else if (tl.index.size() == bl.index.size()) {
      p.mask_mode = MaskMode::kXorDelta;
      std::vector<std::uint8_t> mask(tl.index.size());
      for (std::size_t k = 0; k < mask.size(); ++k) {
        mask[k] = tl.index[k] ^ bl.index[k];
      }
      p.index = lossless->encode(mask);
      p.index_codec = options.lossless_codec;
    } else {
      p.mask_mode = MaskMode::kFullIndex;
      p.index = lossless->encode(tl.index);
      p.index_codec = options.lossless_codec;
    }

    p.base_data_crc = util::crc32(float_bytes(bl.data));
    p.base_index_crc = util::crc32(bl.index);
    p.recon_data_crc = util::crc32(float_bytes(tl.data));
    p.recon_index_crc = util::crc32(tl.index);
    p.bias = std::move(tbias);
  });

  DeltaModel model;
  model.target_container_bytes = target_container.size();
  auto& out = model.bytes;
  util::put_le<std::uint32_t>(out, wire::kMagic);
  util::put_le<std::uint32_t>(out, wire::kVersionDelta);
  util::put_le<std::uint32_t>(out, static_cast<std::uint32_t>(n));
  util::put_string(out, options.base_id.empty() ? "base" : options.base_id);
  util::put_le<std::uint32_t>(out, base.container_crc());

  std::vector<ContainerEntry> directory(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = plans[i];
    auto& e = directory[i];
    e.name = p.name;
    e.rows = p.rows;
    e.cols = p.cols;
    e.eb = p.eb;
    e.kind = p.kind;
    e.mask_mode = p.mask_mode;
    e.base_data_crc = p.base_data_crc;
    e.base_index_crc = p.base_index_crc;
    e.base_bias_crc = p.base_bias_crc;
    e.recon_data_crc = p.recon_data_crc;
    e.recon_index_crc = p.recon_index_crc;

    util::put_le<std::uint8_t>(out, static_cast<std::uint8_t>(p.kind));
    util::put_string(out, p.name);
    util::put_le<std::int64_t>(out, p.rows);
    util::put_le<std::int64_t>(out, p.cols);
    switch (p.kind) {
      case LayerKind::kFull:
        util::put_le<double>(out, p.eb);
        wire::put_stream(out, p.data_codec, p.data, e.data);
        wire::put_stream(out, p.index_codec, p.index, e.index);
        break;
      case LayerKind::kSame:
        util::put_le<std::uint32_t>(out, p.base_data_crc);
        util::put_le<std::uint32_t>(out, p.base_index_crc);
        util::put_le<std::uint32_t>(out, p.base_bias_crc);
        break;
      case LayerKind::kDelta:
        util::put_le<double>(out, p.eb);
        util::put_le<std::uint8_t>(out,
                                   static_cast<std::uint8_t>(p.mask_mode));
        wire::put_stream(out, p.data_codec, p.data, e.data);
        wire::put_stream(out, p.corr_codec, p.corr, e.corr);
        if (p.mask_mode != MaskMode::kSameAsBase) {
          wire::put_stream(out, p.index_codec, p.index, e.index);
        }
        util::put_le<std::uint32_t>(out, p.base_data_crc);
        util::put_le<std::uint32_t>(out, p.base_index_crc);
        util::put_le<std::uint32_t>(out, p.recon_data_crc);
        util::put_le<std::uint32_t>(out, p.recon_index_crc);
        break;
    }
    if (p.kind != LayerKind::kSame) wire::put_bias(out, p.bias, e);

    DeltaLayerStats stats;
    stats.layer = p.name;
    stats.kind = p.kind;
    stats.mask_mode = p.mask_mode;
    stats.data_bytes = p.data.size();
    stats.index_bytes = p.index.size();
    stats.corr_bytes = p.corr.size();
    stats.target_bytes = target.entry(i).payload_bytes();
    model.stats.push_back(std::move(stats));
  }

  wire::put_footer(out, wire::footer_body(wire::kVersionDelta, directory));
  return model;
}

DeltaModel encode_delta_model(std::span<const std::uint8_t> base_container,
                              std::span<const std::uint8_t> target_container,
                              const DeltaOptions& options) {
  ContainerReader base(base_container);
  if (base.is_delta()) {
    throw std::invalid_argument(
        "encode_delta_model: this overload needs a full base container; "
        "resolve the delta base's own chain and pass the ContainerReader");
  }
  return encode_delta_model(base, target_container, options);
}

}  // namespace deepsz::core
