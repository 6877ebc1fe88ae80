// sparse_fc_forward: CSR batched forward agrees with the generic dense walk
// to fp tolerance for every batch size, including the padded widths.
#include "serve/sparse_forward.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace deepsz::serve {
namespace {

std::vector<std::uint8_t> chained_container(bool with_bias) {
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(data::synthesize_pruned_layer("fc1", 24, 32, 0.2, 301));
  layers.push_back(data::synthesize_pruned_layer("fc2", 16, 24, 0.3, 302));
  layers.push_back(data::synthesize_pruned_layer("fc3", 5, 16, 0.5, 303));
  std::map<std::string, std::vector<float>> biases;
  if (with_bias) {
    util::Pcg32 rng(9);
    for (const auto& l : layers) {
      std::vector<float> b(static_cast<std::size_t>(l.rows));
      for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 0.1));
      biases[l.name] = b;
    }
  }
  return core::encode_model(layers, {}, {}, biases).bytes;
}

tensor::Tensor random_batch(std::int64_t rows, std::int64_t cols,
                        std::uint64_t seed) {
  tensor::Tensor x({rows, cols});
  util::Pcg32 rng(seed);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return x;
}

ModelStoreOptions with_csr() {
  ModelStoreOptions opts;
  opts.build_csr = true;
  return opts;
}

TEST(SparseForward, CsrViewMatchesDenseMatrix) {
  ModelStore store(chained_container(true), with_csr());
  auto layer = store.get("fc1");
  ASSERT_EQ(layer->csr_rowptr.size(), static_cast<std::size_t>(layer->rows) + 1);
  EXPECT_GT(layer->nnz(), 0u);
  EXPECT_LT(layer->density(), 0.5);  // pruned to keep 0.2

  // Rebuild the dense matrix from CSR; must match exactly.
  std::vector<float> rebuilt(layer->dense.size(), 0.0f);
  for (std::int64_t r = 0; r < layer->rows; ++r) {
    for (std::uint32_t nz = layer->csr_rowptr[r];
         nz < layer->csr_rowptr[r + 1]; ++nz) {
      rebuilt[r * layer->cols + layer->csr_col[nz]] = layer->csr_val[nz];
    }
  }
  EXPECT_EQ(rebuilt, layer->dense);
}

TEST(SparseForward, MatchesGenericPathAcrossBatchSizes) {
  auto bytes = chained_container(true);
  ModelStore store(bytes, with_csr());
  std::vector<std::shared_ptr<const ServedLayer>> chain = {
      store.get("fc1"), store.get("fc2"), store.get("fc3")};

  InferenceSession session(store);  // dense walk (sparse off)

  for (std::int64_t rows : {1, 2, 3, 4, 7, 8, 9, 16, 33}) {
    auto x = random_batch(rows, 32, 400u + static_cast<std::uint64_t>(rows));
    auto expect = session.infer(x);
    auto got = sparse_fc_forward(chain, x);
    ASSERT_EQ(got.dim(0), rows);
    ASSERT_EQ(got.dim(1), 5);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      EXPECT_NEAR(got[i], expect[i], 1e-4) << "rows=" << rows << " i=" << i;
    }
  }
}

TEST(SparseForward, HandlesMissingBias) {
  ModelStore store(chained_container(false), with_csr());
  std::vector<std::shared_ptr<const ServedLayer>> chain = {
      store.get("fc1"), store.get("fc2"), store.get("fc3")};
  InferenceSession session(store);
  auto x = random_batch(6, 32, 77);
  auto expect = session.infer(x);
  auto got = sparse_fc_forward(chain, x);
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-4);
  }
}

TEST(SparseForward, RejectsBadInputs) {
  ModelStore store(chained_container(true), with_csr());
  EXPECT_THROW(sparse_fc_forward({}, random_batch(4, 32, 1)),
               std::invalid_argument);
  std::vector<std::shared_ptr<const ServedLayer>> chain = {store.get("fc1")};
  EXPECT_THROW(sparse_fc_forward(chain, random_batch(4, 31, 1)),
               std::invalid_argument);
  std::vector<std::shared_ptr<const ServedLayer>> broken = {store.get("fc1"),
                                                            store.get("fc3")};
  EXPECT_THROW(sparse_fc_forward(broken, random_batch(4, 32, 1)),
               std::invalid_argument);

  // Dense-only store (build_csr off): kernel refuses, session falls back.
  ModelStore dense_store(chained_container(true));
  std::vector<std::shared_ptr<const ServedLayer>> no_csr = {
      dense_store.get("fc1")};
  EXPECT_FALSE(no_csr[0]->has_csr());
  EXPECT_THROW(sparse_fc_forward(no_csr, random_batch(4, 32, 1)),
               std::invalid_argument);
  InferenceSession session(dense_store);
  session.enable_sparse_forward(true);  // no CSR -> dense walk, still OK
  auto y = session.infer(random_batch(8, 32, 2));
  EXPECT_EQ(y.dim(1), 5);
}

TEST(SparseForward, SessionOptInUsesSparsePathForLargeBatches) {
  auto bytes = chained_container(true);
  ModelStore store(bytes, with_csr());
  InferenceSession dense_session(store);
  InferenceSession sparse_session(store);
  sparse_session.enable_sparse_forward(true);
  EXPECT_FALSE(dense_session.sparse_forward_enabled());
  EXPECT_TRUE(sparse_session.sparse_forward_enabled());

  for (std::int64_t rows : {1, 8}) {
    auto x = random_batch(rows, 32, 500u + static_cast<std::uint64_t>(rows));
    auto expect = dense_session.infer(x);
    auto got = sparse_session.infer(x);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      EXPECT_NEAR(got[i], expect[i], 1e-4) << "rows=" << rows;
    }
  }
  // Opted-in sessions still install (pin) every layer exactly once.
  EXPECT_EQ(sparse_session.stats().layer_installs, 3u);
  EXPECT_EQ(sparse_session.stats().requests, 2u);
}

TEST(SparseForward, MixedFormChainServesLayerByLayer) {
  // fc2 is kept at 60%, above the CSR crossover: a native-form store serves
  // fc1 and fc3 CSR-only and fc2 dense-only, and the session runs the chain
  // layer by layer (kernel, GEMM, kernel) with ReLU between them.
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(data::synthesize_pruned_layer("fc1", 24, 32, 0.2, 311));
  layers.push_back(data::synthesize_pruned_layer("fc2", 16, 24, 0.6, 312));
  layers.push_back(data::synthesize_pruned_layer("fc3", 5, 16, 0.2, 313));
  std::map<std::string, std::vector<float>> biases;
  util::Pcg32 rng(10);
  for (const auto& l : layers) {
    auto& b = biases[l.name];
    for (std::int64_t j = 0; j < l.rows; ++j) {
      b.push_back(static_cast<float>(rng.normal(0.0, 0.1)));
    }
  }
  const auto bytes = core::encode_model(layers, {}, {}, biases).bytes;
  ModelStoreOptions opts;
  opts.native_form = true;
  ModelStore native(bytes, opts);
  ModelStore dense(bytes);
  InferenceSession mixed_session(native);
  InferenceSession dense_session(dense);

  for (std::int64_t rows : {1, 3, 16}) {
    auto x = random_batch(rows, 32, 700u + static_cast<std::uint64_t>(rows));
    auto expect = dense_session.infer(x);
    auto got = mixed_session.infer(x);
    ASSERT_EQ(got.dim(0), rows);
    ASSERT_EQ(got.dim(1), 5);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      EXPECT_NEAR(got[i], expect[i], 1e-4) << "rows=" << rows << " i=" << i;
    }
  }
  if (util::have_avx2_fma()) {
    EXPECT_EQ(native.get("fc1")->form, ServingForm::kSparseCsr);
    EXPECT_TRUE(native.get("fc1")->dense.empty());
    EXPECT_EQ(native.get("fc2")->form, ServingForm::kDenseF32);
    EXPECT_EQ(native.get("fc3")->form, ServingForm::kSparseCsr);
  }
  EXPECT_EQ(mixed_session.stats().layer_installs, 3u);
}

TEST(SparseForward, OptedInSessionRunsKernelAtEveryBatchSize) {
  // On an AVX2 host an opted-in session takes the kernel even at batch 1:
  // its output is the kernel's, bit for bit. Without AVX2 it keeps the
  // dense walk, bit-exact with a session that never opted in.
  auto bytes = chained_container(true);
  ModelStore store(bytes, with_csr());
  std::vector<std::shared_ptr<const ServedLayer>> chain = {
      store.get("fc1"), store.get("fc2"), store.get("fc3")};
  InferenceSession dense_session(store);
  InferenceSession sparse_session(store);
  sparse_session.enable_sparse_forward(true);
  for (std::int64_t rows : {1, 2, 3, 16}) {
    auto x = random_batch(rows, 32, 600u + static_cast<std::uint64_t>(rows));
    const auto want = util::have_avx2_fma() ? sparse_fc_forward(chain, x)
                                            : dense_session.infer(x);
    const auto got = sparse_session.infer(x);
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0)
        << "rows=" << rows;
  }
}

}  // namespace
}  // namespace deepsz::serve
