#include "sz/stream_v2.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "lossless/codec.h"
#include "lossless/entropy.h"
#include "sz/predictor.h"
#include "sz/quantizer.h"
#include "util/bitstream.h"
#include "util/byte_io.h"
#include "util/cpu.h"
#include "util/threadpool.h"

#if defined(DEEPSZ_X86_DISPATCH)
#include <immintrin.h>
#endif

namespace deepsz::sz::v2 {
namespace {

constexpr std::uint32_t kMagic = 0x575a5344;  // "DSZW", shared with v1
constexpr std::uint32_t kStreamVersion = 2;

// Ceiling on the element count a header may declare (4 TB of floats);
// anything larger is treated as corruption rather than allocated. Matches
// the v1 parser's policy.
constexpr std::uint64_t kMaxDeclaredCount = 1ull << 40;

// magic u32 + tag u8 + version u32 + count u64 + eb f64 + bins u32 +
// block u32 + chunk u32 + predictor u8 + backend u8 + unpred u64 +
// n_chunks u64.
constexpr std::size_t kFixedHeaderBytes = 55;
constexpr std::size_t kTableEntryBytes = 16;  // offset u64 + length u64

PredictorKind forced_kind(PredictorMode mode) {
  switch (mode) {
    case PredictorMode::kLorenzo1Only: return PredictorKind::kLorenzo1;
    case PredictorMode::kLorenzo2Only: return PredictorKind::kLorenzo2;
    case PredictorMode::kRegressionOnly: return PredictorKind::kRegression;
    case PredictorMode::kAdaptive: break;
  }
  return PredictorKind::kLorenzo1;
}

// ------------------------------------------------------------- AVX2 kernels
//
// Regression-predicted sub-blocks are the vectorizable case: the prediction
// a + b*i depends only on the block-local index, never on reconstruction
// history. Both kernels are compiled for AVX2 *without* FMA on purpose —
// the scalar reference arithmetic is mul-then-add with two roundings, and
// allowing FMA codegen here would let the compiler contract the pair into
// one differently-rounded instruction.

#if defined(DEEPSZ_X86_DISPATCH)

/// Vector quantization of one regression block: writes a candidate code and
/// reconstruction per element plus an ok flag; lanes with ok=0 (out of
/// range, bound violated by rounding, NaN) are left for the scalar path to
/// classify. Mirrors LinearQuantizer::quantize in double precision.
__attribute__((target("avx2"))) void quantize_reg_avx2(
    const float* x, std::size_t n, float a, float b, double eb,
    std::uint32_t radius, std::uint32_t* codes, float* recon,
    std::uint8_t* ok) {
  const __m256d two_eb = _mm256_set1_pd(2.0 * eb);
  const __m256d eb_pd = _mm256_set1_pd(eb);
  const __m256d rad_pd = _mm256_set1_pd(static_cast<double>(radius));
  const __m256d neg_rad_pd = _mm256_set1_pd(-static_cast<double>(radius));
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m128 a_ps = _mm_set1_ps(a);
  const __m128 b_ps = _mm_set1_ps(b);
  const __m128i rad_epi32 = _mm_set1_epi32(static_cast<int>(radius));

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx_epi32 = _mm_setr_epi32(
        static_cast<int>(i), static_cast<int>(i + 1), static_cast<int>(i + 2),
        static_cast<int>(i + 3));
    // pred = a + b * (float)i, float mul then float add like the scalar path.
    const __m128 pred_ps =
        _mm_add_ps(a_ps, _mm_mul_ps(b_ps, _mm_cvtepi32_ps(idx_epi32)));
    const __m256d pred_pd = _mm256_cvtps_pd(pred_ps);
    const __m256d x_pd = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d scaled = _mm256_div_pd(_mm256_sub_pd(x_pd, pred_pd), two_eb);
    // llround semantics (round half away from zero): trunc(v + copysign(.5)).
    const __m256d away =
        _mm256_or_pd(_mm256_and_pd(scaled, sign_mask), half);
    const __m256d q_pd = _mm256_round_pd(_mm256_add_pd(scaled, away),
                                         _MM_FROUND_TO_ZERO |
                                             _MM_FROUND_NO_EXC);
    const __m256d in_range = _mm256_and_pd(
        _mm256_cmp_pd(q_pd, rad_pd, _CMP_LT_OQ),
        _mm256_cmp_pd(q_pd, neg_rad_pd, _CMP_GT_OQ));
    // recon = (float)(pred + (2*eb)*q), mul then add, one narrowing.
    const __m256d recon_pd =
        _mm256_add_pd(pred_pd, _mm256_mul_pd(two_eb, q_pd));
    const __m128 recon_ps = _mm256_cvtpd_ps(recon_pd);
    // Bound re-check on the narrowed value, exactly like the scalar guard.
    const __m256d err = _mm256_andnot_pd(
        sign_mask, _mm256_sub_pd(_mm256_cvtps_pd(recon_ps), x_pd));
    const __m256d bound_ok = _mm256_cmp_pd(err, eb_pd, _CMP_LE_OQ);
    const int mask = _mm256_movemask_pd(_mm256_and_pd(in_range, bound_ok));

    const __m128i code_epi32 =
        _mm_add_epi32(_mm256_cvttpd_epi32(q_pd), rad_epi32);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i), code_epi32);
    _mm_storeu_ps(recon + i, recon_ps);
    for (int lane = 0; lane < 4; ++lane) {
      ok[i + lane] = static_cast<std::uint8_t>((mask >> lane) & 1);
    }
  }
  for (; i < n; ++i) ok[i] = 0;  // tail: scalar path classifies
}

/// Vector reconstruction of one regression block with no unpredictable
/// codes: out[i] = (float)((double)(a + b*(float)i) + (2*eb)*(code-radius)).
/// Bit-identical to the scalar loop (same op order, no FMA), so decode
/// output never depends on host ISA.
__attribute__((target("avx2"))) void reconstruct_reg_avx2(
    const std::uint32_t* codes, std::size_t n, float a, float b, double eb,
    std::uint32_t radius, float* out) {
  const __m256d two_eb = _mm256_set1_pd(2.0 * eb);
  const __m128 a_ps = _mm_set1_ps(a);
  const __m128 b_ps = _mm_set1_ps(b);
  const __m128i rad_epi32 = _mm_set1_epi32(static_cast<int>(radius));

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx_epi32 = _mm_setr_epi32(
        static_cast<int>(i), static_cast<int>(i + 1), static_cast<int>(i + 2),
        static_cast<int>(i + 3));
    const __m128 pred_ps =
        _mm_add_ps(a_ps, _mm_mul_ps(b_ps, _mm_cvtepi32_ps(idx_epi32)));
    const __m128i q_epi32 = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i)),
        rad_epi32);
    const __m256d recon_pd = _mm256_add_pd(
        _mm256_cvtps_pd(pred_ps),
        _mm256_mul_pd(two_eb, _mm256_cvtepi32_pd(q_epi32)));
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(recon_pd));
  }
  for (; i < n; ++i) {
    const float pred = a + b * static_cast<float>(i);
    const long long q = static_cast<long long>(codes[i]) -
                        static_cast<long long>(radius);
    out[i] = static_cast<float>(static_cast<double>(pred) +
                                2.0 * eb * static_cast<double>(q));
  }
}

#endif  // DEEPSZ_X86_DISPATCH

/// Vector paths index blocks through int32 lanes; larger blocks fall back
/// to scalar (never hit with realistic chunk sizes).
constexpr std::size_t kMaxSimdBlock = std::size_t{1} << 30;

/// Per-chunk scratch reused across sub-blocks so the encode inner loop is
/// allocation-free (chunks encode concurrently; one scratch per worker).
struct EncodeScratch {
  std::vector<float> recon;
  std::vector<std::uint8_t> ok;
};

/// Quantizes one regression-predicted block: fills symbols[0..n) and
/// appends outliers in index order. Returns the last two reconstructed
/// values through prev1/prev2 for the next block's Lorenzo history.
void quantize_regression_block(const float* x, std::size_t n,
                               const LineFit& fit,
                               const LinearQuantizer& quantizer, double eb,
                               std::uint32_t radius, std::uint32_t* symbols,
                               std::vector<float>& outliers, float* prev1,
                               float* prev2, EncodeScratch& scratch) {
  if (n == 0) return;
  scratch.recon.resize(n);
  auto& recon = scratch.recon;
  bool vectorized = false;
#if defined(DEEPSZ_X86_DISPATCH)
  if (util::have_avx2_fma() && n >= 8 && n <= kMaxSimdBlock) {
    scratch.ok.resize(n);
    auto& ok = scratch.ok;
    quantize_reg_avx2(x, n, fit.a, fit.b, eb, radius, symbols, recon.data(),
                      ok.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (ok[i]) continue;
      const float pred = fit.a + fit.b * static_cast<float>(i);
      float r = 0.0f;
      const std::uint32_t code = quantizer.quantize(x[i], pred, &r);
      if (code == LinearQuantizer::kUnpredictable) {
        outliers.push_back(x[i]);
        r = x[i];
      }
      symbols[i] = code;
      recon[i] = r;
    }
    // Outliers must land in index order: the fix-up loop above already
    // walks i ascending, and vector lanes never push outliers.
    vectorized = true;
  }
#endif
  if (!vectorized) {
    for (std::size_t i = 0; i < n; ++i) {
      const float pred = fit.a + fit.b * static_cast<float>(i);
      float r = 0.0f;
      const std::uint32_t code = quantizer.quantize(x[i], pred, &r);
      if (code == LinearQuantizer::kUnpredictable) {
        outliers.push_back(x[i]);
        r = x[i];
      }
      symbols[i] = code;
      recon[i] = r;
    }
  }
  *prev2 = n >= 2 ? recon[n - 2] : *prev1;
  *prev1 = recon[n - 1];
}

// ------------------------------------------------------------ chunk encode

struct EncodedChunk {
  std::vector<std::uint8_t> framed;  // backend-compressed chunk body
  std::uint64_t unpredictable = 0;
};

/// Encodes one chunk as a self-contained unit: predictor history starts at
/// zero, the Huffman table is built from this chunk's own symbols, and the
/// outlier region is chunk-local.
EncodedChunk encode_chunk(std::span<const float> chunk,
                          const SzParams& params, double eb,
                          std::uint32_t bins, std::uint32_t block_size,
                          const SampledCostModel* model) {
  const std::size_t n = chunk.size();
  const std::size_t n_sub = (n + block_size - 1) / block_size;
  const LinearQuantizer quantizer(eb, bins);
  const std::uint32_t radius = quantizer.radius();

  std::vector<std::uint8_t> kinds(n_sub, 0);
  std::vector<LineFit> fits;

  // Pass 1: choose a predictor per sub-block on original values.
  {
    float prev1 = 0.0f, prev2 = 0.0f;
    for (std::size_t b = 0; b < n_sub; ++b) {
      const std::size_t lo = b * block_size;
      const std::size_t hi = std::min(n, lo + block_size);
      auto block = chunk.subspan(lo, hi - lo);
      LineFit fit = fit_line(block);
      const PredictorKind kind =
          model ? select_predictor(model->block_costs(block, prev1, prev2, fit))
                : forced_kind(params.predictor);
      kinds[b] = static_cast<std::uint8_t>(kind);
      if (kind == PredictorKind::kRegression) fits.push_back(fit);
      prev2 = hi - lo >= 2 ? block[hi - lo - 2] : prev1;
      prev1 = block[hi - lo - 1];
    }
  }

  // Pass 2: quantize against reconstructed values.
  std::vector<std::uint32_t> symbols(n);
  std::vector<float> outliers;
  {
    float prev1 = 0.0f, prev2 = 0.0f;
    std::size_t fit_idx = 0;
    EncodeScratch scratch;
    for (std::size_t b = 0; b < n_sub; ++b) {
      const std::size_t lo = b * block_size;
      const std::size_t hi = std::min(n, lo + block_size);
      const auto kind = static_cast<PredictorKind>(kinds[b]);
      if (kind == PredictorKind::kRegression) {
        quantize_regression_block(chunk.data() + lo, hi - lo,
                                  fits[fit_idx++], quantizer, eb, radius,
                                  symbols.data() + lo, outliers, &prev1,
                                  &prev2, scratch);
        continue;
      }
      for (std::size_t i = lo; i < hi; ++i) {
        const float pred =
            kind == PredictorKind::kLorenzo1 ? prev1 : 2.0f * prev1 - prev2;
        float recon = 0.0f;
        const std::uint32_t code = quantizer.quantize(chunk[i], pred, &recon);
        if (code == LinearQuantizer::kUnpredictable) {
          outliers.push_back(chunk[i]);
          recon = chunk[i];
        }
        symbols[i] = code;
        prev2 = prev1;
        prev1 = recon;
      }
    }
  }

  // Chunk-local entropy coding.
  std::vector<std::uint64_t> freq(bins, 0);
  for (auto s : symbols) ++freq[s];
  lossless::HuffmanEncoder enc;
  enc.init(freq);
  util::BitWriter bw;
  enc.write_table(bw);
  for (auto s : symbols) enc.encode(bw, s);
  auto huff = bw.finish();

  util::BitWriter kb;
  for (auto k : kinds) kb.write_bits(k, 2);
  auto kbytes = kb.finish();

  std::vector<std::uint8_t> body;
  util::put_le<std::uint32_t>(body, static_cast<std::uint32_t>(n));
  util::put_le<std::uint32_t>(body,
                              static_cast<std::uint32_t>(outliers.size()));
  util::put_le<std::uint32_t>(body, static_cast<std::uint32_t>(kbytes.size()));
  util::put_le<std::uint32_t>(body, static_cast<std::uint32_t>(fits.size()));
  util::put_le<std::uint64_t>(body, huff.size());
  util::put_bytes(body, kbytes);
  for (const auto& f : fits) {
    util::put_le<float>(body, f.a);
    util::put_le<float>(body, f.b);
  }
  util::put_bytes(body, huff);
  for (float v : outliers) util::put_le<float>(body, v);

  EncodedChunk out;
  out.unpredictable = outliers.size();
  out.framed = lossless::compress(params.backend, body);
  return out;
}

// ------------------------------------------------------------ chunk decode

/// Decodes one chunk body into out[0..expected_n). Throws on any
/// inconsistency; every declared length is bounds-checked by ByteReader.
void decode_chunk(std::span<const std::uint8_t> framed,
                  std::size_t expected_n, std::uint32_t bins,
                  std::uint32_t block_size, double eb, float* out) {
  const auto body = lossless::decompress(framed);
  util::ByteReader r(body);
  const auto n = static_cast<std::size_t>(r.get<std::uint32_t>());
  if (n != expected_n) {
    throw std::runtime_error("sz: corrupt chunk (count mismatch)");
  }
  const auto n_unpred = static_cast<std::size_t>(r.get<std::uint32_t>());
  if (n_unpred > n) {
    throw std::runtime_error("sz: corrupt chunk (outlier count exceeds size)");
  }
  const auto kinds_len = static_cast<std::size_t>(r.get<std::uint32_t>());
  const auto n_fits = static_cast<std::size_t>(r.get<std::uint32_t>());
  const auto huff_len = static_cast<std::size_t>(r.get<std::uint64_t>());

  const std::size_t n_sub = (n + block_size - 1) / block_size;
  if (kinds_len != (2 * n_sub + 7) / 8) {
    throw std::runtime_error("sz: corrupt chunk (kinds length)");
  }
  if (n_fits > n_sub) {
    throw std::runtime_error("sz: corrupt chunk (more fits than blocks)");
  }

  auto kbytes = r.get_bytes(kinds_len);
  std::vector<std::uint8_t> kinds(n_sub);
  {
    util::BitReader kb(kbytes);
    for (auto& k : kinds) k = static_cast<std::uint8_t>(kb.read_bits(2));
  }
  std::vector<LineFit> fits(n_fits);
  for (auto& f : fits) {
    f.a = r.get<float>();
    f.b = r.get<float>();
  }
  auto huff = r.get_bytes(huff_len);
  std::vector<float> outliers(n_unpred);
  for (auto& v : outliers) v = r.get<float>();
  if (!r.done()) {
    throw std::runtime_error("sz: corrupt chunk (trailing bytes)");
  }

  std::vector<std::uint32_t> symbols(n);
  {
    util::BitReader br(huff);
    lossless::HuffmanDecoder dec;
    dec.read_table(br, bins);
    dec.decode(br, symbols);
  }

  const LinearQuantizer quantizer(eb, bins);
  const std::uint32_t radius = quantizer.radius();
  float prev1 = 0.0f, prev2 = 0.0f;
  std::size_t fit_idx = 0, unpred_idx = 0;
  for (std::size_t b = 0; b < n_sub; ++b) {
    const std::size_t lo = b * block_size;
    const std::size_t hi = std::min(n, lo + block_size);
    const auto kind = static_cast<PredictorKind>(kinds[b]);
    const LineFit* fit = nullptr;
    if (kind == PredictorKind::kRegression) {
      if (fit_idx >= fits.size()) throw std::runtime_error("sz: missing fit");
      fit = &fits[fit_idx++];
    }
#if defined(DEEPSZ_X86_DISPATCH)
    if (kind == PredictorKind::kRegression && util::have_avx2_fma() &&
        hi - lo >= 8 && hi - lo <= kMaxSimdBlock &&
        std::find(symbols.begin() + lo, symbols.begin() + hi,
                  LinearQuantizer::kUnpredictable) == symbols.begin() + hi) {
      // Outlier-free regression block: reconstruction has no sequential
      // dependency, and the kernel reproduces the scalar math bit-exactly.
      reconstruct_reg_avx2(symbols.data() + lo, hi - lo, fit->a, fit->b, eb,
                           radius, out + lo);
      prev2 = hi - lo >= 2 ? out[hi - 2] : prev1;
      prev1 = out[hi - 1];
      continue;
    }
#endif
    for (std::size_t i = lo; i < hi; ++i) {
      float pred;
      switch (kind) {
        case PredictorKind::kLorenzo1:
          pred = prev1;
          break;
        case PredictorKind::kLorenzo2:
          pred = 2.0f * prev1 - prev2;
          break;
        case PredictorKind::kRegression:
          pred = fit->a + fit->b * static_cast<float>(i - lo);
          break;
        default:
          throw std::runtime_error("sz: bad predictor kind in stream");
      }
      float recon;
      if (symbols[i] == LinearQuantizer::kUnpredictable) {
        if (unpred_idx >= outliers.size()) {
          throw std::runtime_error("sz: missing unpredictable value");
        }
        recon = outliers[unpred_idx++];
      } else {
        recon = quantizer.reconstruct(symbols[i], pred);
      }
      out[i] = recon;
      prev2 = prev1;
      prev1 = recon;
    }
  }
  if (unpred_idx != outliers.size()) {
    throw std::runtime_error("sz: corrupt chunk (unconsumed outliers)");
  }
}

// ------------------------------------------------------------------ header

struct Header {
  SzStreamInfo info;
  std::size_t table_pos = 0;  // byte offset of the per-chunk table
  std::size_t area_pos = 0;   // byte offset of the chunk payload area
};

Header parse_header(std::span<const std::uint8_t> stream) {
  util::ByteReader r(stream);
  if (r.get<std::uint32_t>() != kMagic) {
    throw std::runtime_error("sz: bad magic");
  }
  if (r.get<std::uint8_t>() != kTag) {
    throw std::runtime_error("sz: not a v2 stream");
  }
  const auto version = r.get<std::uint32_t>();
  if (version != kStreamVersion) {
    throw std::runtime_error("sz: unsupported stream version " +
                             std::to_string(version));
  }
  Header h;
  h.info.stream_version = kStreamVersion;
  h.info.count = r.get<std::uint64_t>();
  h.info.abs_error_bound = r.get<double>();
  h.info.quant_bins = r.get<std::uint32_t>();
  h.info.block_size = r.get<std::uint32_t>();
  h.info.chunk_size = r.get<std::uint32_t>();
  h.info.predictor = static_cast<PredictorMode>(r.get<std::uint8_t>());
  const auto backend_byte = r.get<std::uint8_t>();
  h.info.unpredictable = r.get<std::uint64_t>();
  h.info.n_chunks = r.get<std::uint64_t>();
  h.table_pos = r.pos();

  if (h.info.count > kMaxDeclaredCount) {
    throw std::runtime_error("sz: corrupt header (implausible count)");
  }
  if (h.info.quant_bins < 16 || h.info.block_size < 16 ||
      h.info.chunk_size < 16) {
    throw std::runtime_error(
        "sz: corrupt header (bins/block/chunk size too small)");
  }
  if (!(h.info.abs_error_bound > 0.0) ||
      !std::isfinite(h.info.abs_error_bound)) {
    throw std::runtime_error("sz: corrupt header (bad error bound)");
  }
  if (backend_byte >
      static_cast<std::uint8_t>(lossless::CodecId::kBloscLike)) {
    throw std::runtime_error("sz: corrupt header (unknown backend)");
  }
  h.info.backend = static_cast<lossless::CodecId>(backend_byte);
  const std::uint64_t expect_chunks =
      h.info.count == 0
          ? 0
          : (h.info.count + h.info.chunk_size - 1) / h.info.chunk_size;
  if (h.info.n_chunks != expect_chunks) {
    throw std::runtime_error("sz: corrupt header (chunk count mismatch)");
  }
  if (h.info.unpredictable > h.info.count) {
    throw std::runtime_error("sz: corrupt header (unpredictable exceeds count)");
  }
  // The offset table must physically fit in the stream before any
  // allocation is sized by n_chunks.
  if (h.info.n_chunks > (stream.size() - h.table_pos) / kTableEntryBytes) {
    throw std::runtime_error("sz: truncated stream (offset table)");
  }
  h.area_pos = h.table_pos +
               static_cast<std::size_t>(h.info.n_chunks) * kTableEntryBytes;
  // The declared count must also be plausible against the bytes actually
  // present: every value costs at least one Huffman bit before the backend
  // pass, and even pathological constant data cannot legitimately expand
  // the physical payload by more than ~1100x (cf. untrusted_reserve_hint in
  // lossless/codec.h). Without this, a ~100-byte stream declaring a count
  // near kMaxDeclaredCount drives a multi-GiB output allocation in
  // decompress() before any chunk body is examined.
  constexpr std::uint64_t kMaxFloatsPerPayloadByte = 4096;
  const std::uint64_t area_size = stream.size() - h.area_pos;
  if (h.info.count > area_size * kMaxFloatsPerPayloadByte) {
    throw std::runtime_error("sz: corrupt header (count exceeds payload)");
  }
  return h;
}

}  // namespace

bool is_v2(std::span<const std::uint8_t> stream) {
  if (stream.size() < 5) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, stream.data(), sizeof(magic));
  return magic == kMagic && stream[4] == kTag;
}

std::vector<std::uint8_t> compress(std::span<const float> data,
                                   const SzParams& params, double abs_eb) {
  const std::uint32_t bins = std::max<std::uint32_t>(16, params.quant_bins);
  const std::uint32_t block_size =
      std::max<std::uint32_t>(16, params.block_size);
  const std::uint32_t chunk_size =
      std::max<std::uint32_t>(16, params.chunk_size);
  const std::size_t n = data.size();
  const std::size_t n_chunks = n == 0 ? 0 : (n + chunk_size - 1) / chunk_size;

  // One sampled rate model over the whole array, shared read-only by every
  // chunk worker (same per-code bit costs as a v1 encode would use).
  std::optional<SampledCostModel> model;
  if (params.predictor == PredictorMode::kAdaptive && n > 0) {
    model.emplace(data, block_size, abs_eb, bins);
  }

  std::vector<EncodedChunk> chunks(n_chunks);
  util::parallel_for(0, n_chunks, [&](std::size_t c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    chunks[c] = encode_chunk(data.subspan(lo, hi - lo), params, abs_eb, bins,
                             block_size, model ? &*model : nullptr);
  });

  std::uint64_t unpred_total = 0;
  for (const auto& c : chunks) unpred_total += c.unpredictable;

  std::vector<std::uint8_t> out;
  util::put_le<std::uint32_t>(out, kMagic);
  util::put_le<std::uint8_t>(out, kTag);
  util::put_le<std::uint32_t>(out, kStreamVersion);
  util::put_le<std::uint64_t>(out, n);
  util::put_le<double>(out, abs_eb);
  util::put_le<std::uint32_t>(out, bins);
  util::put_le<std::uint32_t>(out, block_size);
  util::put_le<std::uint32_t>(out, chunk_size);
  util::put_le<std::uint8_t>(out,
                             static_cast<std::uint8_t>(params.predictor));
  util::put_le<std::uint8_t>(out, static_cast<std::uint8_t>(params.backend));
  util::put_le<std::uint64_t>(out, unpred_total);
  util::put_le<std::uint64_t>(out, n_chunks);
  std::uint64_t offset = 0;
  for (const auto& c : chunks) {
    util::put_le<std::uint64_t>(out, offset);
    util::put_le<std::uint64_t>(out, c.framed.size());
    offset += c.framed.size();
  }
  for (const auto& c : chunks) util::put_bytes(out, c.framed);
  return out;
}

std::vector<float> decompress(std::span<const std::uint8_t> stream) {
  const Header h = parse_header(stream);
  const std::size_t n = static_cast<std::size_t>(h.info.count);
  const std::size_t n_chunks = static_cast<std::size_t>(h.info.n_chunks);
  const std::size_t area_size = stream.size() - h.area_pos;

  struct Extent {
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::vector<Extent> extents(n_chunks);
  {
    util::ByteReader r(stream.subspan(h.table_pos));
    std::uint64_t prev_end = 0;
    for (auto& e : extents) {
      const auto off = r.get<std::uint64_t>();
      const auto len = r.get<std::uint64_t>();
      if (off < prev_end) {
        throw std::runtime_error(
            "sz: corrupt offset table (overlapping chunks)");
      }
      if (len > area_size || off > area_size - len) {
        throw std::runtime_error(
            "sz: corrupt offset table (chunk extent out of range)");
      }
      prev_end = off + len;
      e.offset = static_cast<std::size_t>(off);
      e.length = static_cast<std::size_t>(len);
    }
  }

  std::vector<float> out(n);
  util::parallel_for(0, n_chunks, [&](std::size_t c) {
    const std::size_t lo = c * h.info.chunk_size;
    const std::size_t hi =
        std::min(n, lo + static_cast<std::size_t>(h.info.chunk_size));
    decode_chunk(
        stream.subspan(h.area_pos + extents[c].offset, extents[c].length),
        hi - lo, h.info.quant_bins, h.info.block_size, h.info.abs_error_bound,
        out.data() + lo);
  });
  return out;
}

SzStreamInfo inspect(std::span<const std::uint8_t> stream) {
  return parse_header(stream).info;
}

}  // namespace deepsz::sz::v2
