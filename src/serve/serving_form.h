// The tagged serving forms a decoded layer can stay resident in.
//
// Serving used to inflate every layer to dense f32 no matter how it was
// compressed, so a Deep-Compression layer that costs ~5 bits/weight on the
// wire cost 32 bits/weight once warm. A ServedLayer now carries exactly one
// of three forms and every consumer (forward kernels, cache accounting)
// dispatches on the tag:
//
//   kDenseF32     dense row-major f32 matrix — the universal fallback; what
//                 the session's dense GEMM walk reads.
//   kSparseCsr    CSR arrays (rowptr/col/val) of the surviving weights, built
//                 straight from the decoded two-array form — what the sparse
//                 forward kernel runs. No dense matrix, except in a store
//                 with ModelStoreOptions::build_csr, which keeps a dense side
//                 copy for perfbench's dense probe.
//   kCodebookCsr  compressed-domain: CSR structure whose per-nonzero payload
//                 is a u8/u16 codebook id instead of an f32, plus the k-entry
//                 f32 codebook. No dense matrix is ever materialized, so the
//                 layer stays resident at ~4-5 bits/weight instead of 32.
//
// A store opted into native forms (ModelStoreOptions::native_form, the
// serving daemon's store) picks one form per layer at decode time: a codec
// whose encoded representation is already a (codebook, ids) pair — "dc" —
// decodes straight into kCodebookCsr; any other layer is kSparseCsr when its
// stored-entry density is at or below kSparseCsrMaxDensity and the host runs
// the AVX2 kernel, and kDenseF32 otherwise (unpruned checkpoints).
// Strategies declare their codec's form at the API level through
// compress::CompressorInfo::native_form.
#pragma once

#include <cstdint>
#include <string>

namespace deepsz::serve {

enum class ServingForm : std::uint8_t {
  kDenseF32 = 0,
  kSparseCsr = 1,
  kCodebookCsr = 2,
};

inline constexpr int kNumServingForms = 3;

inline const char* serving_form_name(ServingForm form) {
  switch (form) {
    case ServingForm::kDenseF32:
      return "dense-f32";
    case ServingForm::kSparseCsr:
      return "sparse-csr";
    case ServingForm::kCodebookCsr:
      return "codebook-csr";
  }
  return "unknown";
}

/// Stored entries / (rows x cols) at or below which a native-form store
/// serves a layer CSR-only. Measured on the paper's fc shapes (AVX2 CSR
/// kernel vs dense GEMM, batch 1 and 16): the kernel reaches parity between
/// densities 0.25 and 0.3 on AlexNet fc6/fc7/fc8 and is 1.2-2x slower from
/// 0.35 up, while the CSR arrays (8 bytes per nonzero) stay 40% smaller
/// than the dense matrix at 0.3. Every pruned zoo layer (at most 26% kept)
/// falls below it.
inline constexpr double kSparseCsrMaxDensity = 0.3;

/// The compressed-domain serving form a container data-codec spec can be
/// decoded into without inflating to dense f32, or kDenseF32 when the codec
/// only decodes to floats. Specs are "name" or "name:key=value,..."; only
/// the name matters here. "dc" (Deep Compression's codebook + Huffman ids)
/// is currently the one codec with a native compressed-domain form.
inline ServingForm native_form_for_codec_spec(const std::string& spec) {
  const std::string name = spec.substr(0, spec.find(':'));
  if (name == "dc") return ServingForm::kCodebookCsr;
  return ServingForm::kDenseF32;
}

}  // namespace deepsz::serve
