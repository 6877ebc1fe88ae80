// Step 4 of DeepSZ: generation of the compressed model, plus the decoder.
//
// Container v2 ("DSZC" version 3 on the wire): per layer, an error-bounded
// stream for the data array (at the layer's optimized error bound) and a
// lossless stream for the index array. Both streams record the registry spec
// of the codec that produced them (codec/registry.h), so any registered
// backend can be used per container without touching the decoder, and both
// are guarded by a CRC-32. Layers are encoded and decoded in parallel via
// util::ThreadPool::global().
//
// Parallelism is two-level: on top of the per-layer fan-out here, the
// default "sz" data codec now emits chunked stream-v2 payloads whose chunks
// decode independently on the same pool (sz/stream_v2.h), so even a
// single-layer decode — the serving layer's cold-miss path through
// ContainerReader::decode_layer — saturates every core instead of running
// one serial scalar pass. Containers holding legacy sz-v1 data streams
// decode unchanged (the codec auto-detects the stream version).
//
// New containers additionally carry a seekable index: a per-stream
// offset/length table appended as a footer (trailer magic "DSZX"), so
// ContainerReader can decode one named layer without touching any other
// layer's bytes — the substrate of the serving layer (serve/model_store.h).
// Indexless containers are still read by a cheap record scan that never
// decodes stream payloads. See docs/container_format.md for the wire layout.
//
// The decoder also accepts version-2 containers written before the codec
// registry existed (implicit SZ data + self-describing lossless index
// streams) and reports the Figure-7b timing breakdown: lossless
// decompression, error-bounded decompression, and sparse-matrix
// reconstruction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sparse/pruned_layer.h"
#include "sz/sz.h"
#include "util/mutex.h"

namespace deepsz::codec {
class ByteCodec;
class FloatCodec;
}  // namespace deepsz::codec

namespace deepsz::core {

/// Per-layer sizes recorded at encode time (Table 2 columns).
struct EncodedLayerStats {
  std::string layer;
  double eb = 0.0;
  std::string data_codec;        // registry spec of the data-array codec
  std::string index_codec;       // registry spec of the index-array codec
  std::size_t dense_bytes = 0;   // original fp32 matrix
  std::size_t csr_bytes = 0;     // two-array sparse representation
  std::size_t data_bytes = 0;    // error-bounded stream
  std::size_t index_bytes = 0;   // lossless stream
  std::size_t total_bytes() const { return data_bytes + index_bytes; }
  double compression_ratio() const {
    return total_bytes() ? static_cast<double>(dense_bytes) / total_bytes()
                         : 0.0;
  }
};

struct EncodedModel {
  std::vector<std::uint8_t> bytes;
  std::vector<EncodedLayerStats> stats;

  std::size_t dense_bytes() const;
  std::size_t compressed_payload_bytes() const;  // sum of per-layer streams
  double compression_ratio() const;
};

/// Container-level knobs. Codecs are registry specs (codec/registry.h), so
/// any registered backend — builtin or plugged in later — can serve either
/// role by name.
struct ContainerOptions {
  /// Error-bounded codec for the data arrays ("sz", "zfp", "sz:...").
  std::string data_codec = "sz";
  /// Lossless codec for the index arrays ("zstd", "gzip", "blosc", "store").
  std::string index_codec = "zstd";
  /// Error bound for layers missing from eb_per_layer.
  double default_eb = 1e-3;
  /// Encode/decode per-layer streams across ThreadPool::global(). Serial
  /// execution (for timing comparisons) when false or on a 1-thread host.
  bool parallel = true;
};

/// Encodes pruned layers with per-layer error bounds (missing layers use
/// options.default_eb). `biases` optionally carries each layer's bias vector,
/// stored verbatim (biases are tiny — `rows` floats — and the paper leaves
/// them uncompressed); pass {} to omit. Throws codec::UnknownCodec /
/// codec::BadOptions on an unresolvable codec spec.
EncodedModel encode_model(const std::vector<sparse::PrunedLayer>& layers,
                          const std::map<std::string, double>& eb_per_layer,
                          const ContainerOptions& options = {},
                          const std::map<std::string, std::vector<float>>&
                              biases = {});

/// Registry spec ("sz:quant_bins=...,block_size=...,...") equivalent to an
/// SzParams template; the error bound is supplied per stream at encode time.
std::string sz_codec_spec(const sz::SzParams& params);

/// Figure 7b's decode phases, in milliseconds. Under parallel decode the
/// per-codec fields aggregate time spent across worker threads (CPU time per
/// phase), so the breakdown stays comparable with the serial path.
struct DecodeTiming {
  double lossless_ms = 0.0;
  double sz_ms = 0.0;  // error-bounded codec (SZ by default)
  double reconstruct_ms = 0.0;
  double total_ms() const { return lossless_ms + sz_ms + reconstruct_ms; }
};

struct DecodedModel {
  std::vector<sparse::PrunedLayer> layers;
  std::map<std::string, std::vector<float>> biases;  // empty if not stored
  DecodeTiming timing;
};

/// Decodes a model; validates per-stream CRCs and measures the phase
/// breakdown. `reconstruct_dense` additionally times the sparse->dense
/// conversion without keeping the dense matrices. Accepts both container
/// versions; throws std::runtime_error on corrupt or truncated input.
DecodedModel decode_model(std::span<const std::uint8_t> bytes,
                          bool reconstruct_dense = true,
                          bool parallel = true);

// ---------------------------------------------------------------------------
// Random access
// ---------------------------------------------------------------------------

/// Location and identity of one encoded stream inside a container.
struct StreamRef {
  std::string codec;           // registry spec; empty = legacy implicit codec
  std::uint64_t offset = 0;    // absolute byte offset of the stream payload
  std::uint64_t length = 0;    // payload length in bytes
  std::uint32_t crc = 0;       // CRC-32 of the payload
};

/// How a version-4 (delta container) layer record relates to the base
/// container named in the header. Version 2/3 records are always kFull.
enum class LayerKind : std::uint8_t {
  /// Self-contained v3-style record: both streams present, no base needed.
  kFull = 0,
  /// Zero-byte reference: data, index and bias are bit-identical to the base
  /// layer of the same name; the record stores only CRC pins of the base's
  /// decoded arrays so a wrong base is detected, never silently served.
  kSame = 1,
  /// Residual record: data = base + FloatCodec(residual), bit-exactness
  /// restored by a lossless XOR correction stream; index carried as a
  /// sparsity-mask delta (see ContainerEntry::mask_mode).
  kDelta = 2,
};

/// How a kDelta record carries the layer's index (position-delta) array.
enum class MaskMode : std::uint8_t {
  kSameAsBase = 0,  // zero bytes: index identical to the base layer's
  kXorDelta = 1,    // lossless stream of base.index XOR target.index
  kFullIndex = 2,   // lossless stream of the full target index
};

/// One layer's directory entry: everything needed to decode the layer
/// without parsing any other record.
struct ContainerEntry {
  std::string name;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  double eb = 0.0;
  StreamRef data;              // error-bounded stream (weights / residual)
  StreamRef index;             // lossless stream (position deltas / mask)
  std::uint64_t bias_offset = 0;  // absolute offset of the raw fp32 bias
  std::uint64_t bias_count = 0;   // number of bias floats (0 = none stored)

  // Version-4 delta fields; defaults describe a v2/v3 full record.
  LayerKind kind = LayerKind::kFull;
  MaskMode mask_mode = MaskMode::kSameAsBase;
  StreamRef corr;  // kDelta: lossless bit-correction stream (4 bytes/value)
  /// CRC-32 pins of the base layer's decoded arrays (data floats as bytes,
  /// index bytes, bias floats as bytes) — verified before any delta is
  /// applied so a wrong or tampered base is a clean error.
  std::uint32_t base_data_crc = 0;
  std::uint32_t base_index_crc = 0;
  std::uint32_t base_bias_crc = 0;
  /// CRC-32 pins of the reconstructed arrays — a forged-but-resigned
  /// residual/correction stream cannot produce a silently wrong layer.
  std::uint32_t recon_data_crc = 0;
  std::uint32_t recon_index_crc = 0;

  /// Compressed payload cost of this layer (all streams).
  std::size_t payload_bytes() const {
    return static_cast<std::size_t>(data.length + index.length + corr.length);
  }
};

/// Random access into a model container: decodes a single named layer
/// without touching any other layer's stream bytes.
///
/// Construction parses the footer index when present (O(#layers), no stream
/// bytes read); indexless containers — legacy version 2, or any container
/// cut at the end of its records — are scanned record by record, which reads
/// record headers only and still never decodes or checksums stream payloads.
/// The reader is non-owning: `bytes` must outlive it. decode_layer() is
/// const and thread-safe; distinct layers decode concurrently.
///
/// Delta containers (version 4, see delta_codec.h) additionally name a base
/// container. Attach the resolved base with set_base() — which verifies the
/// base's whole-file CRC against the header's base_crc and bounds the chain
/// depth — before decoding any kSame/kDelta layer; decoding one without a
/// base attached throws. set_base() is setup-phase only: call it before
/// handing the reader to concurrent decoders.
class ContainerReader {
 public:
  /// Longest allowed base chain (delta-of-delta-of-...). Resolution beyond
  /// this — including any cycle, which presents as an ever-growing chain —
  /// is rejected with a clean error.
  static constexpr int kMaxChainDepth = 8;
  /// Where the layer directory comes from. kAuto prefers the footer index
  /// and falls back to scanning; kScanRecords always walks the records —
  /// decode_model uses it so corruption anywhere in a record (not just in
  /// stream payloads) is still detected on a full decode.
  enum class DirectorySource { kAuto, kScanRecords };

  /// Parses the directory. Throws std::runtime_error on a corrupt or
  /// truncated container (bad magic, malformed footer, out-of-range or
  /// overlapping stream extents, duplicate layer names, count mismatch).
  explicit ContainerReader(std::span<const std::uint8_t> bytes,
                           DirectorySource source = DirectorySource::kAuto);

  /// True when the container carried a footer index (seek, no scan).
  bool has_footer_index() const { return has_footer_; }

  std::size_t num_layers() const { return entries_.size(); }
  const std::vector<ContainerEntry>& entries() const { return entries_; }
  const ContainerEntry& entry(std::size_t i) const { return entries_.at(i); }

  /// Directory entry by layer name; throws std::out_of_range if absent.
  const ContainerEntry& entry(const std::string& name) const;
  /// Position of the named layer in entries(); throws std::out_of_range.
  std::size_t index_of(const std::string& name) const;
  bool contains(const std::string& name) const;

  /// Sum of all layers' compressed stream bytes.
  std::size_t payload_bytes() const;

  // -- Delta-container (version 4) surface ----------------------------------

  /// Container wire version (2, 3, or 4).
  std::uint32_t version() const { return version_; }
  /// True for a version-4 delta container (base_id/base_crc in the header).
  bool is_delta() const;
  /// Identifier of the base container this delta applies to (typically the
  /// base's file path or served-model name); empty for full containers.
  const std::string& base_id() const { return base_id_; }
  /// CRC-32 of the entire base container file this delta was diffed against.
  std::uint32_t base_crc() const { return base_crc_; }
  /// CRC-32 of this container's own bytes (what a successor delta's
  /// base_crc must match). O(container size), not memoized.
  std::uint32_t container_crc() const;

  /// Attaches the resolved base reader. Verifies base->container_crc()
  /// against the header's base_crc, requires the base's own chain to be
  /// resolved, and bounds the total chain depth at kMaxChainDepth. The
  /// shared_ptr keeps the base (and, via aliasing, its owning storage)
  /// alive for this reader's lifetime. Throws std::runtime_error on a
  /// mismatched/forged base, an unresolved base chain, or an over-deep
  /// chain; also when called on a non-delta container.
  void set_base(std::shared_ptr<const ContainerReader> base);
  /// The attached base, nullptr when none (or not a delta container).
  const ContainerReader* base() const { return base_.get(); }
  /// Number of delta hops below this container (0 = full container or
  /// delta with no base attached yet).
  int chain_depth() const { return depth_; }

  /// Applies layer i's delta record to a caller-supplied decode of the base
  /// layer (the warm hot-swap path reconstructs the base arrays from the
  /// already-resident served form instead of re-decoding the base
  /// container). Verifies the record's base CRC pins against `base_layer`
  /// and the reconstruction CRC pins against the result; throws
  /// std::runtime_error on any mismatch or on a non-kDelta record.
  sparse::PrunedLayer apply_delta(std::size_t i,
                                  const sparse::PrunedLayer& base_layer,
                                  DecodeTiming* timing = nullptr) const;

  /// Decodes exactly one layer: CRC-checks and decodes that layer's two
  /// streams and nothing else. kSame/kDelta layers resolve through the
  /// attached base (throws when none is attached). `timing`, when given,
  /// receives the lossless / error-bounded phase split for this layer alone.
  sparse::PrunedLayer decode_layer(std::size_t i,
                                   DecodeTiming* timing = nullptr) const;
  sparse::PrunedLayer decode_layer(const std::string& name,
                                   DecodeTiming* timing = nullptr) const;

  // Compressed-domain access: a consumer that can serve a layer without
  // inflating its data stream to f32 (serve/model_store.h's codebook path)
  // still needs the lossless index deltas and the raw — but CRC-verified —
  // data-stream payload. Both throw std::runtime_error on a checksum
  // mismatch, exactly like decode_layer.

  /// Decodes layer i's lossless index stream (position deltas) only.
  /// Full (kFull) records only — a delta record's index slot holds a mask
  /// delta, not position deltas, so this throws on kSame/kDelta.
  /// `lossless_ms`, when given, receives the codec time.
  std::vector<std::uint8_t> decode_index_stream(
      std::size_t i, double* lossless_ms = nullptr) const;

  /// CRC-checks layer i's data stream and returns its payload bytes,
  /// undecoded. The span views the container bytes. kFull records only.
  std::span<const std::uint8_t> checked_data_stream(std::size_t i) const;

  /// Copies the layer's stored bias out of the container ({} when absent).
  /// kSame layers forward to the attached base, verifying the bias CRC pin.
  std::vector<float> decode_bias(std::size_t i) const;
  std::vector<float> decode_bias(const std::string& name) const;

 private:
  void parse_footer(std::size_t body_start, std::size_t body_len,
                    std::uint32_t n_layers);
  void scan_records(std::uint32_t n_layers, std::size_t payload_end);
  void validate_entries(std::size_t payload_end);
  const ContainerReader& require_base(const std::string& layer) const;
  /// CRC-checks one stream's payload and returns it as a span of bytes_.
  std::span<const std::uint8_t> checked_span(const StreamRef& ref,
                                             const std::string& name) const;
  // Recursion through the base chain carries an explicit budget so even a
  // forged pointer cycle (two readers attached to each other) is a clean
  // error, never unbounded recursion.
  sparse::PrunedLayer decode_layer_impl(std::size_t i, DecodeTiming* timing,
                                        int depth_budget) const;
  std::vector<float> decode_bias_impl(std::size_t i, int depth_budget) const;

  std::shared_ptr<codec::FloatCodec> float_codec(const std::string& spec) const;
  std::shared_ptr<codec::ByteCodec> byte_codec(const std::string& spec) const;

  std::span<const std::uint8_t> bytes_;
  bool has_footer_ = false;
  std::uint32_t version_ = 0;
  std::size_t header_bytes_ = 0;  // fixed prefix + v4 base fields
  std::string base_id_;
  std::uint32_t base_crc_ = 0;
  std::shared_ptr<const ContainerReader> base_;
  int depth_ = 0;
  std::vector<ContainerEntry> entries_;
  std::map<std::string, std::size_t> by_name_;

  // Codec instances are stateless; memoize resolution per distinct spec so
  // concurrent decode_layer calls don't re-parse option strings.
  mutable util::Mutex codec_mu_;
  mutable std::map<std::string, std::shared_ptr<codec::FloatCodec>>
      float_codecs_ DEEPSZ_GUARDED_BY(codec_mu_);
  mutable std::map<std::string, std::shared_ptr<codec::ByteCodec>>
      byte_codecs_ DEEPSZ_GUARDED_BY(codec_mu_);
};

}  // namespace deepsz::core
