// ModelStore: byte-budgeted LRU over decoded layers, thread-safe lookup,
// coalesced in-flight decodes, and eviction that never invalidates readers.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "serve/model_store.h"
#include "tests/counting_codec.h"
#include "util/cpu.h"

namespace deepsz::serve {
namespace {

std::vector<sparse::PrunedLayer> some_layers(int n = 3) {
  std::vector<sparse::PrunedLayer> layers;
  for (int i = 0; i < n; ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(6 + i), 64, 128, 0.15, 21 + i));
  }
  return layers;
}

std::vector<std::uint8_t> encode(const std::vector<sparse::PrunedLayer>& ls,
                                 core::ContainerOptions opts = {}) {
  return core::encode_model(ls, {}, opts).bytes;
}

/// The exact dense matrix a full decode reconstructs for one layer (the
/// data arrays are lossy-coded, so the original layer is NOT the oracle).
std::vector<float> decoded_dense(const std::vector<std::uint8_t>& bytes,
                                 std::size_t i) {
  return core::decode_model(bytes).layers[i].to_dense();
}

TEST(ModelStore, MissThenHitAndPeek) {
  auto layers = some_layers();
  auto bytes = encode(layers);
  ModelStore store(bytes);
  EXPECT_EQ(store.peek("fc6"), nullptr);

  auto first = store.get("fc6");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->dense, decoded_dense(bytes, 0));
  auto second = store.get("fc6");
  EXPECT_EQ(first.get(), second.get());  // same cached object
  EXPECT_EQ(store.peek("fc6").get(), first.get());

  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.cached_layers, 1u);
  EXPECT_GT(stats.cached_bytes, 0u);
  EXPECT_GT(stats.decode_ms, 0.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_THROW(store.get("nope"), std::out_of_range);
}

TEST(ModelStore, ServesBiasFromContainer) {
  auto layers = some_layers(1);
  std::map<std::string, std::vector<float>> biases = {
      {"fc6", std::vector<float>(64, 0.125f)}};
  auto model = core::encode_model(layers, {}, {}, biases);
  ModelStore store(model.bytes);
  auto served = store.get("fc6");
  EXPECT_EQ(served->bias, biases["fc6"]);
}

TEST(ModelStore, LruEvictsUnderByteBudget) {
  auto layers = some_layers(3);
  // Probe one layer's cached footprint, then budget for exactly two.
  std::size_t per_layer = 0;
  {
    ModelStore probe(encode(layers));
    per_layer = probe.get("fc6")->bytes();
  }
  ModelStoreOptions opts;
  opts.cache_budget_bytes = 2 * per_layer + per_layer / 2;
  ModelStore store(encode(layers), opts);

  store.get("fc6");
  store.get("fc7");
  store.get("fc8");  // evicts fc6, the least recently used
  EXPECT_EQ(store.peek("fc6"), nullptr);
  EXPECT_NE(store.peek("fc7"), nullptr);
  EXPECT_NE(store.peek("fc8"), nullptr);

  auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cached_layers, 2u);
  EXPECT_LE(stats.cached_bytes, opts.cache_budget_bytes);

  // Touching fc7 makes fc8 the LRU victim when fc6 reloads.
  store.get("fc7");
  store.get("fc6");
  EXPECT_EQ(store.peek("fc8"), nullptr);
  EXPECT_NE(store.peek("fc7"), nullptr);
}

TEST(ModelStore, OversizedLayerServedButNotRetained) {
  auto layers = some_layers(1);
  auto bytes = encode(layers);
  ModelStoreOptions opts;
  opts.cache_budget_bytes = 0;
  ModelStore store(bytes, opts);
  auto served = store.get("fc6");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->dense, decoded_dense(bytes, 0));
  auto stats = store.stats();
  EXPECT_EQ(stats.cached_layers, 0u);
  EXPECT_EQ(stats.cached_bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ModelStore, EvictionKeepsOutstandingReadersValid) {
  auto layers = some_layers(1);
  ModelStore store(encode(layers));
  auto served = store.get("fc6");
  const auto snapshot = served->dense;
  store.evict_all();
  EXPECT_EQ(store.peek("fc6"), nullptr);
  EXPECT_EQ(served->dense, snapshot);  // shared_ptr pins the memory
}

TEST(ModelStore, DuplicateInFlightDecodesCoalesce) {
  auto& decodes = testing::register_counting_codec("countdec-store", 0xCE);
  auto layers = some_layers(1);
  core::ContainerOptions copts;
  copts.index_codec = "countdec-store";
  ModelStore store(encode(layers, copts));

  decodes = 0;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ServedLayer>> results(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { results[t] = store.get("fc6"); });
    }
    for (auto& th : threads) th.join();
  }
  // The layer's index stream ran through the codec exactly once, no matter
  // how the eight lookups raced.
  EXPECT_EQ(decodes, 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
  }
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1u);
}

TEST(ModelStore, ConcurrentDistinctLayersAllDecodeCorrectly) {
  auto layers = some_layers(3);
  auto bytes = encode(layers);
  ModelStore store(bytes);
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const ServedLayer>> results(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = store.get(layers[t].name); });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 3; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t]->dense, decoded_dense(bytes, t));
  }
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(ModelStore, WarmupFillsCacheInParallel) {
  auto layers = some_layers(3);
  ModelStore store(encode(layers));
  store.warmup();
  auto stats = store.stats();
  EXPECT_EQ(stats.cached_layers, 3u);
  EXPECT_EQ(stats.misses, 3u);

  store.reset_stats();
  for (const auto& l : layers) store.get(l.name);
  stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.decode_ms, 0.0);
}

TEST(ModelStore, CorruptLayerFailsEveryWaiterAndCachesNothing) {
  auto layers = some_layers(2);
  auto bytes = encode(layers);
  core::ContainerReader pristine(bytes);
  const auto& target = pristine.entry("fc6");
  bytes[static_cast<std::size_t>(target.data.offset + target.data.length / 2)] ^=
      0x01;

  ModelStore store(std::move(bytes));
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        store.get("fc6");
      } catch (const std::runtime_error&) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, kThreads);
  EXPECT_EQ(store.peek("fc6"), nullptr);
  EXPECT_EQ(store.stats().cached_layers, 0u);
  // The intact layer still serves.
  EXPECT_NE(store.get("fc7"), nullptr);
}

std::vector<std::uint8_t> encode_dc(
    const std::vector<sparse::PrunedLayer>& ls) {
  core::ContainerOptions copts;
  copts.data_codec = "dc:bits=4,iters=8";
  copts.index_codec = "huffman";
  return core::encode_model(ls, {}, copts).bytes;
}

TEST(ModelStore, NativeFormServesDcLayersAsCodebookCsr) {
  auto layers = some_layers(2);
  ModelStoreOptions opts;
  opts.native_form = true;
  ModelStore store(encode_dc(layers), opts);
  auto served = store.get("fc6");
  ASSERT_EQ(served->form, ServingForm::kCodebookCsr);
  EXPECT_TRUE(served->dense.empty());
  EXPECT_TRUE(served->csr_val.empty());
  EXPECT_TRUE(served->has_csr());
  EXPECT_EQ(served->codebook.size(), 16u);  // dc:bits=4
  EXPECT_EQ(served->csr_id8.size(), served->nnz());
  // Compressed-domain residency: far below the 4*rows*cols bytes a dense
  // f32 decode of the same layer would pin (64x128 -> 32 KB dense).
  EXPECT_LT(served->bytes(), 4u * 64 * 128 / 4);

  // Without the opt-in, the same container inflates to dense f32.
  ModelStore plain(encode_dc(layers));
  auto dense = plain.get("fc6");
  EXPECT_EQ(dense->form, ServingForm::kDenseF32);
  EXPECT_EQ(dense->dense.size(), 64u * 128u);
  EXPECT_TRUE(dense->codebook.empty());
}

TEST(ModelStore, FormBytesPartitionCachedBytes) {
  auto layers = some_layers(3);
  ModelStoreOptions opts;
  opts.native_form = true;
  opts.build_csr = true;
  ModelStore store(encode_dc(layers), opts);
  store.warmup();
  auto stats = store.stats();
  // All three layers are "dc"-coded: everything resident sits in the
  // codebook-CSR bucket and the buckets always sum to cached_bytes.
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr),
            stats.cached_bytes);
  EXPECT_EQ(stats.form_resident(ServingForm::kDenseF32), 0u);
  EXPECT_EQ(stats.form_resident(ServingForm::kSparseCsr), 0u);

  // A dense-decoding store over the same bytes fills the f32 bucket only.
  ModelStore plain(encode_dc(layers));
  plain.warmup();
  auto pstats = plain.stats();
  EXPECT_EQ(pstats.form_resident(ServingForm::kDenseF32),
            pstats.cached_bytes);
  EXPECT_EQ(pstats.form_resident(ServingForm::kCodebookCsr), 0u);

  // A CSR-building store (no native form) fills the sparse-CSR bucket.
  ModelStoreOptions csr_opts;
  csr_opts.build_csr = true;
  ModelStore csr_store(encode_dc(layers), csr_opts);
  csr_store.warmup();
  auto cstats = csr_store.stats();
  EXPECT_EQ(cstats.form_resident(ServingForm::kSparseCsr),
            cstats.cached_bytes);
}

// bytes() is what the cache budget charges, so it must count the heap the
// entry really holds: vector capacities. The CSR arrays are reserved from
// the decoded entry count, never grown past it by push_back doubling.
TEST(ModelStore, BytesCountsCapacityForBothCsrForms) {
  auto layers = some_layers(1);
  auto capacity_bytes = [](const ServedLayer& l) {
    return l.dense.capacity() * sizeof(float) +
           l.bias.capacity() * sizeof(float) +
           l.csr_rowptr.capacity() * sizeof(std::uint32_t) +
           l.csr_col.capacity() * sizeof(std::uint32_t) +
           l.csr_val.capacity() * sizeof(float) +
           l.codebook.capacity() * sizeof(float) + l.csr_id8.capacity() +
           l.csr_id16.capacity() * sizeof(std::uint16_t) + l.name.size();
  };

  ModelStoreOptions csr_opts;
  csr_opts.build_csr = true;
  const auto sz_bytes = encode(layers);
  ModelStore csr_store(sz_bytes, csr_opts);
  auto csr = csr_store.get("fc6");
  ASSERT_EQ(csr->form, ServingForm::kSparseCsr);
  EXPECT_EQ(csr->bytes(), capacity_bytes(*csr));
  const auto sz_entries = core::decode_model(sz_bytes).layers[0].data.size();
  EXPECT_LE(csr->csr_col.capacity(), sz_entries);
  EXPECT_LE(csr->csr_val.capacity(), sz_entries);

  ModelStoreOptions cb_opts;
  cb_opts.native_form = true;
  const auto dc_bytes = encode_dc(layers);
  ModelStore cb_store(dc_bytes, cb_opts);
  auto cb = cb_store.get("fc6");
  ASSERT_EQ(cb->form, ServingForm::kCodebookCsr);
  EXPECT_EQ(cb->bytes(), capacity_bytes(*cb));
  const auto dc_entries = core::decode_model(dc_bytes).layers[0].data.size();
  EXPECT_LE(cb->csr_col.capacity(), dc_entries);
  EXPECT_LE(cb->csr_id8.capacity(), dc_entries);
  EXPECT_EQ(cb_store.stats().cached_bytes, cb->bytes());
}

TEST(ModelStore, FormBytesTrackEvictionAndReset) {
  auto layers = some_layers(3);
  std::size_t per_layer = 0;
  {
    ModelStoreOptions probe_opts;
    probe_opts.native_form = true;
    ModelStore probe(encode_dc(layers), probe_opts);
    per_layer = probe.get("fc6")->bytes();
  }
  ModelStoreOptions opts;
  opts.native_form = true;
  opts.cache_budget_bytes = 2 * per_layer + per_layer / 2;
  ModelStore store(encode_dc(layers), opts);
  store.get("fc6");
  store.get("fc7");
  store.get("fc8");  // evicts fc6
  auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr),
            stats.cached_bytes);

  // reset_stats zeroes counters but keeps the residency accounting.
  store.reset_stats();
  stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr),
            stats.cached_bytes);
  EXPECT_GT(stats.cached_bytes, 0u);

  // evict_all empties every bucket.
  store.evict_all();
  stats = store.stats();
  EXPECT_EQ(stats.cached_bytes, 0u);
  for (std::size_t f = 0; f < kNumServingForms; ++f) {
    EXPECT_EQ(stats.form_bytes[f], 0u) << "form " << f;
  }
}

TEST(ModelStore, NativeFormPicksCsrOnlyOrDenseByDensity) {
  // A native-form store serves an "sz" layer pruned to 15% as CSR only —
  // built straight from the two arrays, no dense matrix — on hosts with the
  // AVX2 kernel, and an unpruned layer (every position stored) dense-only.
  auto layers = some_layers(1);
  layers.push_back(
      data::synthesize_pruned_layer("fc7", 64, 128, 1.0, 22));
  ModelStoreOptions opts;
  opts.native_form = true;
  auto bytes = encode(layers);
  ModelStore store(bytes, opts);

  const auto pruned = store.get("fc6");
  if (util::have_avx2_fma()) {
    EXPECT_EQ(pruned->form, ServingForm::kSparseCsr);
    EXPECT_TRUE(pruned->dense.empty());
    ServedLayer want;
    fill_csr(core::decode_model(bytes).layers[0], want);
    EXPECT_EQ(pruned->csr_rowptr, want.csr_rowptr);
    EXPECT_EQ(pruned->csr_col, want.csr_col);
    EXPECT_EQ(pruned->csr_val, want.csr_val);
    // 8 bytes per kept weight instead of 4 per matrix element.
    EXPECT_LT(pruned->bytes(), 4u * 64 * 128 / 2);
  } else {
    EXPECT_EQ(pruned->form, ServingForm::kDenseF32);
    EXPECT_EQ(pruned->dense, decoded_dense(bytes, 0));
  }

  const auto unpruned = store.get("fc7");
  EXPECT_EQ(unpruned->form, ServingForm::kDenseF32);
  EXPECT_EQ(unpruned->dense, decoded_dense(bytes, 1));
  EXPECT_FALSE(unpruned->has_csr());
  EXPECT_TRUE(unpruned->codebook.empty());

  auto stats = store.stats();
  EXPECT_EQ(stats.form_resident(ServingForm::kDenseF32) +
                stats.form_resident(ServingForm::kSparseCsr),
            stats.cached_bytes);
  EXPECT_EQ(stats.form_resident(ServingForm::kDenseF32), unpruned->bytes());
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr), 0u);
}

}  // namespace
}  // namespace deepsz::serve
