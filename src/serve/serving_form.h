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
//   kSparseCsr    dense matrix plus a CSR view (rowptr/col/val) of the
//                 surviving weights — what the sparse batched forward runs.
//   kCodebookCsr  compressed-domain: CSR structure whose per-nonzero payload
//                 is a u8/u16 codebook id instead of an f32, plus the k-entry
//                 f32 codebook. No dense matrix is ever materialized, so the
//                 layer stays resident at ~4-5 bits/weight instead of 32.
//
// Which form a layer decodes into is decided per data-codec: a codec whose
// encoded representation is already a (codebook, ids) pair — "dc" — has
// kCodebookCsr as its native form, and a ModelStore opted into native forms
// (ModelStoreOptions::native_form) decodes it straight into that layout.
// Strategies declare the same thing at the API level through
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
