#include "serve/sparse_forward.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/cpu.h"

#ifdef DEEPSZ_X86_DISPATCH
#include <immintrin.h>
#endif

namespace deepsz::serve {

namespace {

using util::have_avx2_fma;

#ifdef DEEPSZ_X86_DISPATCH
/// One layer in the transposed domain: for every output row j,
/// yT[j][0..mp) = bias[j] + sum over row-j nonzeros of w * xT[col][0..mp).
/// mp is the padded batch width (multiple of 8), so the inner loop is pure
/// 8-wide FMA over contiguous memory — M rows per weight load.
__attribute__((target("avx2,fma"))) void layer_forward_avx2(
    const ServedLayer& layer, const float* xt, float* yt, std::int64_t mp,
    bool relu) {
  for (std::int64_t j = 0; j < layer.rows; ++j) {
    float* out = yt + j * mp;
    const float bj = layer.bias.empty() ? 0.0f : layer.bias[j];
    const std::uint32_t begin = layer.csr_rowptr[j];
    const std::uint32_t end = layer.csr_rowptr[j + 1];
    for (std::int64_t mm = 0; mm < mp; mm += 8) {
      __m256 acc = _mm256_set1_ps(bj);
      for (std::uint32_t nz = begin; nz < end; ++nz) {
        const __m256 w = _mm256_set1_ps(layer.csr_val[nz]);
        const float* src = xt + static_cast<std::int64_t>(layer.csr_col[nz]) * mp + mm;
        acc = _mm256_fmadd_ps(w, _mm256_loadu_ps(src), acc);
      }
      if (relu) acc = _mm256_max_ps(acc, _mm256_setzero_ps());
      _mm256_storeu_ps(out + mm, acc);
    }
  }
}

/// Codebook variant of layer_forward_avx2: each row's centroids are gathered
/// from the codebook into `scratch` (sized >= the layer's widest row) via
/// vectorized u8/u16 -> i32 widening + _mm256_i32gather_ps, then the FMA
/// loop runs over scratch exactly as the csr_val kernel runs over csr_val —
/// same accumulation order, so the two kernels are bit-identical for equal
/// CSR content.
__attribute__((target("avx2,fma"))) void layer_forward_codebook_avx2(
    const ServedLayer& layer, const float* xt, float* yt, std::int64_t mp,
    bool relu, float* scratch) {
  const bool narrow = !layer.csr_id8.empty();
  const float* codebook = layer.codebook.data();
  for (std::int64_t j = 0; j < layer.rows; ++j) {
    float* out = yt + j * mp;
    const float bj = layer.bias.empty() ? 0.0f : layer.bias[j];
    const std::uint32_t begin = layer.csr_rowptr[j];
    const std::uint32_t n = layer.csr_rowptr[j + 1] - begin;
    std::uint32_t nz = 0;
    if (narrow) {
      const std::uint8_t* ids = layer.csr_id8.data() + begin;
      for (; nz + 8 <= n; nz += 8) {
        const __m256i idx = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ids + nz)));
        _mm256_storeu_ps(scratch + nz,
                         _mm256_i32gather_ps(codebook, idx, 4));
      }
      for (; nz < n; ++nz) scratch[nz] = codebook[ids[nz]];
    } else {
      const std::uint16_t* ids = layer.csr_id16.data() + begin;
      for (; nz + 8 <= n; nz += 8) {
        const __m256i idx = _mm256_cvtepu16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + nz)));
        _mm256_storeu_ps(scratch + nz,
                         _mm256_i32gather_ps(codebook, idx, 4));
      }
      for (; nz < n; ++nz) scratch[nz] = codebook[ids[nz]];
    }
    for (std::int64_t mm = 0; mm < mp; mm += 8) {
      __m256 acc = _mm256_set1_ps(bj);
      for (nz = 0; nz < n; ++nz) {
        const __m256 w = _mm256_set1_ps(scratch[nz]);
        const float* src =
            xt + static_cast<std::int64_t>(layer.csr_col[begin + nz]) * mp +
            mm;
        acc = _mm256_fmadd_ps(w, _mm256_loadu_ps(src), acc);
      }
      if (relu) acc = _mm256_max_ps(acc, _mm256_setzero_ps());
      _mm256_storeu_ps(out + mm, acc);
    }
  }
}
#endif  // DEEPSZ_X86_DISPATCH

void layer_forward_scalar(const ServedLayer& layer, const float* xt,
                          float* yt, std::int64_t mp, bool relu) {
  for (std::int64_t j = 0; j < layer.rows; ++j) {
    float* out = yt + j * mp;
    const float bj = layer.bias.empty() ? 0.0f : layer.bias[j];
    std::fill(out, out + mp, bj);
    const std::uint32_t begin = layer.csr_rowptr[j];
    const std::uint32_t end = layer.csr_rowptr[j + 1];
    for (std::uint32_t nz = begin; nz < end; ++nz) {
      const float w = layer.csr_val[nz];
      const float* src =
          xt + static_cast<std::int64_t>(layer.csr_col[nz]) * mp;
      for (std::int64_t mm = 0; mm < mp; ++mm) out[mm] += w * src[mm];
    }
    if (relu) {
      for (std::int64_t mm = 0; mm < mp; ++mm) {
        out[mm] = std::max(out[mm], 0.0f);
      }
    }
  }
}

/// Codebook variant of layer_forward_scalar; the only change is where the
/// nonzero's weight comes from, so it is bit-identical to the csr_val
/// scalar kernel for equal CSR content.
void layer_forward_codebook_scalar(const ServedLayer& layer, const float* xt,
                                   float* yt, std::int64_t mp, bool relu) {
  const bool narrow = !layer.csr_id8.empty();
  for (std::int64_t j = 0; j < layer.rows; ++j) {
    float* out = yt + j * mp;
    const float bj = layer.bias.empty() ? 0.0f : layer.bias[j];
    std::fill(out, out + mp, bj);
    const std::uint32_t begin = layer.csr_rowptr[j];
    const std::uint32_t end = layer.csr_rowptr[j + 1];
    for (std::uint32_t nz = begin; nz < end; ++nz) {
      const float w =
          layer.codebook[narrow ? layer.csr_id8[nz] : layer.csr_id16[nz]];
      const float* src =
          xt + static_cast<std::int64_t>(layer.csr_col[nz]) * mp;
      for (std::int64_t mm = 0; mm < mp; ++mm) out[mm] += w * src[mm];
    }
    if (relu) {
      for (std::int64_t mm = 0; mm < mp; ++mm) {
        out[mm] = std::max(out[mm], 0.0f);
      }
    }
  }
}

}  // namespace

tensor::Tensor sparse_fc_forward(
    const std::vector<std::shared_ptr<const ServedLayer>>& layers,
    const tensor::Tensor& x, ForwardBackend backend) {
  if (layers.empty()) {
    throw std::invalid_argument("sparse_fc_forward: no layers");
  }
  bool use_avx2 = false;
#ifdef DEEPSZ_X86_DISPATCH
  use_avx2 = backend == ForwardBackend::kAvx2 ||
             (backend == ForwardBackend::kAuto && have_avx2_fma());
  if (backend == ForwardBackend::kAvx2 && !have_avx2_fma()) {
    throw std::invalid_argument(
        "sparse_fc_forward: AVX2+FMA backend forced but unavailable");
  }
#else
  if (backend == ForwardBackend::kAvx2) {
    throw std::invalid_argument(
        "sparse_fc_forward: AVX2 backend not compiled in");
  }
#endif
  const std::int64_t m = x.dim(0);
  const std::int64_t in = x.dim(1);
  if (in != layers.front()->cols) {
    throw std::invalid_argument("sparse_fc_forward: input width " +
                                std::to_string(in) + " != layer cols " +
                                std::to_string(layers.front()->cols));
  }
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    if (layers[l]->rows != layers[l + 1]->cols) {
      throw std::invalid_argument("sparse_fc_forward: stack does not chain");
    }
  }
  for (const auto& layer : layers) {
    if (!layer->has_csr()) {
      throw std::invalid_argument(
          "sparse_fc_forward: layer \"" + layer->name +
          "\" has no CSR view (decode with ModelStoreOptions::native_form)");
    }
  }

  const std::int64_t mp = (m + 7) & ~std::int64_t{7};  // pad to 8 columns
  std::int64_t max_width = in;
  std::uint32_t max_row_nnz = 0;  // widest row among codebook layers
  for (const auto& layer : layers) {
    max_width = std::max(max_width, layer->rows);
    if (layer->form == ServingForm::kCodebookCsr) {
      for (std::int64_t j = 0; j < layer->rows; ++j) {
        max_row_nnz = std::max(
            max_row_nnz, layer->csr_rowptr[j + 1] - layer->csr_rowptr[j]);
      }
    }
  }
  // Gather tile for the vectorized codebook kernel (one row's centroids).
  std::vector<float> scratch(use_avx2 ? max_row_nnz : 0);

  // Transposed activations, double-buffered: buf[f * mp + r] = x[r][f].
  std::vector<float> a(static_cast<std::size_t>(max_width * mp), 0.0f);
  std::vector<float> b(static_cast<std::size_t>(max_width * mp), 0.0f);
  for (std::int64_t r = 0; r < m; ++r) {
    const float* row = x.data() + r * in;
    for (std::int64_t f = 0; f < in; ++f) a[f * mp + r] = row[f];
  }

  float* cur = a.data();
  float* next = b.data();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const bool relu = l + 1 < layers.size();
    const bool codebook = layers[l]->form == ServingForm::kCodebookCsr;
#ifdef DEEPSZ_X86_DISPATCH
    if (use_avx2) {
      if (codebook) {
        layer_forward_codebook_avx2(*layers[l], cur, next, mp, relu,
                                    scratch.data());
      } else {
        layer_forward_avx2(*layers[l], cur, next, mp, relu);
      }
    } else if (codebook) {
      layer_forward_codebook_scalar(*layers[l], cur, next, mp, relu);
    } else {
      layer_forward_scalar(*layers[l], cur, next, mp, relu);
    }
#else
    if (codebook) {
      layer_forward_codebook_scalar(*layers[l], cur, next, mp, relu);
    } else {
      layer_forward_scalar(*layers[l], cur, next, mp, relu);
    }
#endif
    std::swap(cur, next);
  }

  const std::int64_t out_features = layers.back()->rows;
  tensor::Tensor y({m, out_features});
  for (std::int64_t r = 0; r < m; ++r) {
    float* row = y.data() + r * out_features;
    for (std::int64_t j = 0; j < out_features; ++j) row[j] = cur[j * mp + r];
  }
  return y;
}

}  // namespace deepsz::serve
