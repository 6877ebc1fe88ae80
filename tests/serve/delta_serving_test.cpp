// Delta containers through the serving stack: ModelStore base attachment
// (same-layer forwarding, warm and cold delta reconstruction), the
// repository's three base-resolution paths (explicit hint, CRC auto-detect,
// cold file-chain fallback), bytes-shipped accounting, and — the rollout
// contract — a delta-loaded model serving forward passes BIT-identical to
// the full successor container loaded directly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "server/model_repository.h"
#include "tests/counting_codec.h"
#include "tests/server/test_containers.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace deepsz::server {
namespace {

using testing::tiny_container;

// The same 32 -> 24 -> 16 stack test_containers builds, with every weight
// nudged (sparsity pattern intact) — a stand-in fine-tuned successor.
std::vector<sparse::PrunedLayer> tiny_successor_layers(std::uint64_t seed,
                                                       double scale) {
  const std::vector<std::int64_t> dims = {32, 24, 16};
  std::vector<sparse::PrunedLayer> layers;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(i + 1), dims[i + 1], dims[i], 0.2, seed + i));
  }
  util::Pcg32 rng(seed ^ 0xfeed);
  for (auto& l : layers) {
    for (auto& v : l.data) v += static_cast<float>(rng.normal(0.0, scale));
  }
  return layers;
}

std::vector<std::uint8_t> tiny_successor(std::uint64_t seed = 7,
                                         double scale = 2e-3) {
  return core::encode_model(tiny_successor_layers(seed, scale), {},
                            core::ContainerOptions{})
      .bytes;
}

/// Encodes with lossless f32 data streams, so the decoded values are exactly
/// the given ones (-0.0f included); `data_codec` may name a counting codec.
std::vector<std::uint8_t> f32_container(
    const std::vector<sparse::PrunedLayer>& layers,
    const std::string& data_codec = "f32") {
  core::ContainerOptions copts;
  copts.data_codec = data_codec;
  return core::encode_model(layers, {}, copts).bytes;
}

std::vector<std::uint8_t> tiny_delta(const std::vector<std::uint8_t>& base,
                                     const std::vector<std::uint8_t>& target,
                                     const std::string& base_id = "base") {
  core::DeltaOptions opts;
  opts.base_id = base_id;
  return core::encode_delta_model(base, target, opts).bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  // memcmp with an empty vector's null data() is UB even for 0 bytes.
  if (got.empty()) return;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what << " bits differ";
}

void expect_layers_bit_equal(serve::ModelStore& got, serve::ModelStore& want,
                             const std::string& name) {
  auto g = got.get(name);
  auto w = want.get(name);
  EXPECT_EQ(g->form, w->form) << name;
  expect_bits_equal(g->dense, w->dense, name + ": dense");
  EXPECT_EQ(g->bias, w->bias) << name;
  EXPECT_EQ(g->csr_rowptr, w->csr_rowptr) << name;
  EXPECT_EQ(g->csr_col, w->csr_col) << name;
  expect_bits_equal(g->csr_val, w->csr_val, name + ": csr_val");
}

serve::ModelStoreOptions csr_options() {
  serve::ModelStoreOptions opts;
  opts.build_csr = true;
  return opts;
}

// The repository's stores: pruned layers CSR-only, no dense matrix.
serve::ModelStoreOptions native_options() {
  serve::ModelStoreOptions opts;
  opts.native_form = true;
  return opts;
}

TEST(DeltaStore, RequiresMatchingBaseStore) {
  auto base = tiny_container();
  auto delta = tiny_delta(base, tiny_successor());
  // Delta container with no base: construction must fail, not defer.
  EXPECT_THROW(serve::ModelStore(delta, {}), std::runtime_error);
  // Non-delta container with a base store: also a hard error.
  serve::ModelStoreOptions opts;
  opts.base_store = std::make_shared<serve::ModelStore>(base);
  EXPECT_THROW(serve::ModelStore(tiny_container(), opts), std::runtime_error);
  // Wrong base (different bytes than the delta was diffed against).
  serve::ModelStoreOptions wrong;
  wrong.base_store = std::make_shared<serve::ModelStore>(tiny_container(99));
  EXPECT_THROW(serve::ModelStore(delta, wrong), std::runtime_error);
}

TEST(DeltaStore, SameRecordsShareTheBaseResidency) {
  auto base_bytes = tiny_container();
  auto delta = tiny_delta(base_bytes, base_bytes);  // identical successor
  serve::ModelStoreOptions opts;
  opts.base_store = std::make_shared<serve::ModelStore>(base_bytes);
  serve::ModelStore store(delta, opts);

  auto via_delta = store.get("fc1");
  auto via_base = opts.base_store->get("fc1");
  // Not just equal — the SAME decoded entry (no double residency).
  EXPECT_EQ(via_delta.get(), via_base.get());
  EXPECT_EQ(store.peek("fc1").get(), via_base.get());
}

TEST(DeltaStore, WarmAndColdDeltaDecodeMatchDirectLoad) {
  auto base_bytes = tiny_container();
  auto target_bytes = tiny_successor();
  auto delta = tiny_delta(base_bytes, target_bytes);

  serve::ModelStore direct(target_bytes, csr_options());

  // Warm: the base layer is resident before the delta store decodes, so the
  // store reconstructs from the base's dense form without a chain decode.
  {
    serve::ModelStoreOptions opts = csr_options();
    opts.base_store =
        std::make_shared<serve::ModelStore>(base_bytes, csr_options());
    opts.base_store->warmup(false);
    serve::ModelStore store(delta, opts);
    expect_layers_bit_equal(store, direct, "fc1");
    expect_layers_bit_equal(store, direct, "fc2");
  }
  // Cold: nothing resident in the base — full-chain decode path.
  {
    serve::ModelStoreOptions opts = csr_options();
    opts.base_store =
        std::make_shared<serve::ModelStore>(base_bytes, csr_options());
    serve::ModelStore store(delta, opts);
    expect_layers_bit_equal(store, direct, "fc1");
    expect_layers_bit_equal(store, direct, "fc2");
  }
}

// The repository's native-form stores serve the tiny layers CSR-only (on
// hosts with the AVX2 kernel), so a warm swap rebuilds the base arrays by
// merging the base's index positions with its CSR entries. The base's data
// streams go through a counting codec: a warm swap never decodes them
// again, a cold one decodes each once through the chain.
TEST(DeltaStore, NativeWarmSwapMatchesDirectLoadWithoutBaseDecode) {
  auto& decodes =
      deepsz::testing::register_counting_float_codec("countf32-warm");
  const auto base_bytes =
      f32_container(tiny_successor_layers(7, 0.0), "countf32-warm");
  const auto target_bytes = f32_container(tiny_successor_layers(7, 2e-3));
  const auto delta = tiny_delta(base_bytes, target_bytes);
  for (const char* name : {"fc1", "fc2"}) {
    ASSERT_EQ(core::ContainerReader(delta).entry(name).kind,
              core::LayerKind::kDelta)
        << name;
  }
  serve::ModelStore direct(target_bytes, native_options());

  for (const bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    serve::ModelStoreOptions opts = native_options();
    opts.base_store =
        std::make_shared<serve::ModelStore>(base_bytes, native_options());
    if (warm) {
      opts.base_store->warmup(false);
      const auto fc1 = opts.base_store->peek("fc1");
      if (util::have_avx2_fma()) {
        EXPECT_EQ(fc1->form, serve::ServingForm::kSparseCsr);
        EXPECT_TRUE(fc1->dense.empty());
      }
    }
    const int before = decodes.load();
    serve::ModelStore store(delta, opts);
    expect_layers_bit_equal(store, direct, "fc1");
    expect_layers_bit_equal(store, direct, "fc2");
    EXPECT_EQ(decodes.load() - before, warm ? 0 : 2);
  }
}

// A -0.0f base entry is dropped from the CSR (value != 0.0f keeps it out),
// so the merge rebuilds it as +0.0f and misses the record's base CRC pin.
// The swap must still serve the target's exact bits, via the cold chain
// decode, not fail.
TEST(DeltaStore, NegativeZeroBaseEntryFallsBackToColdDecode) {
  auto& decodes =
      deepsz::testing::register_counting_float_codec("countf32-negzero");
  auto base_layers = tiny_successor_layers(7, 0.0);
  base_layers[0].data[3] = -0.0f;
  const auto base_bytes = f32_container(base_layers, "countf32-negzero");
  const auto target_bytes = f32_container(tiny_successor_layers(7, 2e-3));
  const auto delta = tiny_delta(base_bytes, target_bytes);
  ASSERT_EQ(core::ContainerReader(delta).entry("fc1").kind,
            core::LayerKind::kDelta);

  serve::ModelStoreOptions opts = native_options();
  opts.base_store =
      std::make_shared<serve::ModelStore>(base_bytes, native_options());
  opts.base_store->warmup(false);
  const int before = decodes.load();
  serve::ModelStore store(delta, opts);
  serve::ModelStore direct(target_bytes, native_options());
  expect_layers_bit_equal(store, direct, "fc1");
  // Only a CSR-only base loses the sign; a dense base gathers it back.
  EXPECT_EQ(decodes.load() - before, util::have_avx2_fma() ? 1 : 0);
  expect_layers_bit_equal(store, direct, "fc2");  // no -0.0f: warm
  EXPECT_EQ(decodes.load() - before, util::have_avx2_fma() ? 1 : 0);
}

TEST(DeltaRepository, LoadWithExplicitHint) {
  ModelRepository repo;
  auto base_bytes = tiny_container();
  auto base = repo.load("prod", base_bytes);
  auto delta = tiny_delta(base_bytes, tiny_successor());

  auto next = repo.load("canary", delta, "", "prod");
  EXPECT_EQ(next->base_ref, "prod");
  EXPECT_EQ(next->shipped_bytes, delta.size());
  EXPECT_EQ(repo.bytes_shipped(), base_bytes.size() + delta.size());

  // Hints must name a loaded model, and only delta containers take one.
  EXPECT_THROW(repo.load("x", delta, "", "absent"), std::invalid_argument);
  EXPECT_THROW(repo.load("x", tiny_container(), "", "prod"),
               std::invalid_argument);
}

TEST(DeltaRepository, AutoDetectsBaseByContainerCrc) {
  ModelRepository repo;
  auto base_bytes = tiny_container();
  repo.load("whatever-name", base_bytes);
  auto delta = tiny_delta(base_bytes, tiny_successor());

  auto next = repo.load("canary", delta);  // no hint
  EXPECT_EQ(next->base_ref, "whatever-name");
  EXPECT_EQ(next->shipped_bytes, delta.size());
}

TEST(DeltaRepository, ColdFileChainFallback) {
  const std::string dir = ::testing::TempDir();
  auto base_bytes = tiny_container();
  auto mid_bytes = tiny_successor(7, 1e-3);
  auto tip_bytes = tiny_successor(7, 2e-3);
  // A two-hop chain on disk: tip (delta) -> mid (delta) -> base (full). The
  // tip is diffed against the RESOLVED mid delta so its base_crc pins the
  // mid delta file the repository will actually read.
  auto mid_delta_bytes =
      tiny_delta(base_bytes, mid_bytes, "delta_chain_base.dszc");
  auto mid_reader = std::make_shared<core::ContainerReader>(mid_delta_bytes);
  mid_reader->set_base(std::make_shared<core::ContainerReader>(base_bytes));
  core::DeltaOptions dopts;
  dopts.base_id = "delta_chain_mid.dszc";
  auto tip_delta = core::encode_delta_model(*mid_reader, tip_bytes, dopts);
  write_file(dir + "delta_chain_base.dszc", base_bytes);
  write_file(dir + "delta_chain_mid.dszc", mid_delta_bytes);
  const std::string tip_path = dir + "delta_chain_tip.dszc";
  write_file(tip_path, tip_delta.bytes);

  // Nothing loaded: the repository must resolve base_id file-by-file,
  // relative to the tip's own directory, through BOTH hops.
  ModelRepository repo;
  auto model = repo.load_file("tip", tip_path);
  EXPECT_EQ(model->base_ref, "delta_chain_mid.dszc");
  EXPECT_GT(model->shipped_bytes, tip_delta.bytes.size());

  // Serves the tip's exact bits.
  serve::ModelStore direct(tip_bytes, native_options());
  expect_layers_bit_equal(*model->store, direct, "fc1");
  expect_layers_bit_equal(*model->store, direct, "fc2");
}

TEST(DeltaRepository, UnloadingBaseKeepsDeltaServing) {
  ModelRepository repo;
  auto base_bytes = tiny_container();
  repo.load("prod", base_bytes);
  auto delta = tiny_delta(base_bytes, tiny_successor());
  auto next = repo.load("canary", delta, "", "prod");

  ASSERT_TRUE(repo.unload("prod"));
  // The delta snapshot holds the base store alive: both the same-forwarded
  // and delta-reconstructed layers keep serving.
  serve::ModelStore direct(tiny_successor(), native_options());
  expect_layers_bit_equal(*next->store, direct, "fc1");
  expect_layers_bit_equal(*next->store, direct, "fc2");
}

TEST(DeltaRepository, DeltaLoadedModelIsForwardEquivalent) {
  ModelRepository repo;
  auto base_bytes = tiny_container();
  auto target_bytes = tiny_successor();
  repo.load("prod", base_bytes);
  auto rollout = repo.load("prod", tiny_delta(base_bytes, target_bytes));
  auto direct = std::make_shared<ModelRepository>();
  auto direct_model = direct->load("prod", target_bytes);

  serve::InferenceSession a(*rollout->store);
  serve::InferenceSession b(*direct_model->store);

  util::Pcg32 rng(0xd17a);
  tensor::Tensor x({4, rollout->in_features});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  auto ya = a.infer(x);
  auto yb = b.infer(x);
  ASSERT_EQ(ya.numel(), yb.numel());
  // Bit-identical, not close: the delta reconstructs the target's exact
  // weights and both sessions run the identical forward path.
  EXPECT_EQ(std::memcmp(ya.data(), yb.data(),
                        static_cast<std::size_t>(ya.numel()) * sizeof(float)),
            0);
}

}  // namespace
}  // namespace deepsz::server
