// InferenceSession: ModelStore-backed forward passes — lazy layer install,
// bit-identical results vs. an eagerly decoded network, zero codec work once
// warm, and the checks that guard the chain it serves.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "core/pipeline.h"
#include "data/weight_synthesis.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace deepsz::serve {
namespace {

// A chained fc-stack container: fc6 [24x32], fc7 [16x24], fc8 [4x16], all
// with biases, exactly what the deepsz strategy emits for an MLP.
struct ServeFixture {
  std::vector<sparse::PrunedLayer> layers;
  std::map<std::string, std::vector<float>> biases;
  core::EncodedModel model;

  ServeFixture() {
    layers.push_back(
        data::synthesize_pruned_layer("fc6", 24, 32, 0.25, 101));
    layers.push_back(
        data::synthesize_pruned_layer("fc7", 16, 24, 0.30, 102));
    layers.push_back(data::synthesize_pruned_layer("fc8", 4, 16, 0.50, 103));
    util::Pcg32 rng(7);
    for (const auto& l : layers) {
      std::vector<float> b(static_cast<std::size_t>(l.rows));
      for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 0.1));
      biases[l.name] = b;
    }
    model = core::encode_model(layers, {}, {}, biases);
  }

  /// Network matching the container's fc-stack (Dense in = cols, out = rows).
  static nn::Network make_net(const std::string& name) {
    nn::Network net(name);
    net.add<nn::Dense>(32, 24)->set_name("fc6");
    net.add<nn::ReLU>();
    net.add<nn::Dense>(24, 16)->set_name("fc7");
    net.add<nn::ReLU>();
    net.add<nn::Dense>(16, 4)->set_name("fc8");
    return net;
  }

  static nn::Tensor make_batch(std::int64_t n, std::uint64_t seed) {
    nn::Tensor x({n, 32});
    util::Pcg32 rng(seed);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return x;
  }
};

TEST(InferenceSession, MatchesEagerlyDecodedNetworkBitExactly) {
  ServeFixture f;
  // Reference: decode the whole container up front (the paper's deployment
  // path) into a fresh network.
  auto reference = ServeFixture::make_net("reference");
  core::load_compressed_model(f.model.bytes, reference);

  ModelStore store(f.model.bytes);
  auto served_net = ServeFixture::make_net("served");
  InferenceSession session(store, served_net);

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto batch = ServeFixture::make_batch(8, seed);
    auto expect = reference.forward(batch);
    auto got = session.infer(batch);
    ASSERT_EQ(got.numel(), expect.numel());
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << "logit " << i;
    }
  }
  // One store fetch per served fc-layer, ever.
  EXPECT_EQ(store.stats().lookups(), 3u);
}

TEST(InferenceSession, ConstructionDecodesNothing) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  InferenceSession session(store);
  // Layers decode when a request reaches them, not when the session opens.
  EXPECT_EQ(store.stats().lookups(), 0u);
  session.infer(ServeFixture::make_batch(2, 9));
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(InferenceSession, WarmRequestsDoZeroCodecWork) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  InferenceSession session(store);

  session.infer(ServeFixture::make_batch(4, 11));  // cold: decodes all three
  store.reset_stats();
  for (int i = 0; i < 5; ++i) {
    session.infer(ServeFixture::make_batch(4, 20u + i));
  }
  // Warm steady state: the session holds its pins, so it does not even
  // consult the store, let alone run a codec.
  auto stats = store.stats();
  EXPECT_EQ(stats.lookups(), 0u);
  EXPECT_DOUBLE_EQ(stats.decode_ms, 0.0);
}

TEST(InferenceSession, SecondSessionHitsWarmCache) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  InferenceSession first(store);
  first.infer(ServeFixture::make_batch(2, 31));

  store.reset_stats();
  InferenceSession second(store);
  second.infer(ServeFixture::make_batch(2, 32));
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0);
}

TEST(InferenceSession, PinnedLayersSurviveCacheEviction) {
  ServeFixture f;
  ModelStoreOptions opts;
  opts.cache_budget_bytes = 0;  // every decode is immediately evicted
  ModelStore store(f.model.bytes, opts);
  InferenceSession session(store);

  auto reference = ServeFixture::make_net("reference");
  core::load_compressed_model(f.model.bytes, reference);

  for (std::uint64_t seed : {41u, 42u}) {
    auto batch = ServeFixture::make_batch(4, seed);
    auto expect = reference.forward(batch);
    auto got = session.infer(batch);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], expect[i]);
    }
  }
  // Nothing retained by the cache, yet the session's pins kept every layer
  // alive and each layer decoded only once.
  EXPECT_EQ(store.stats().cached_layers, 0u);
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(InferenceSession, NetworkOverloadAcceptsOnlyTheContainerChain) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  auto exact = ServeFixture::make_net("exact");
  EXPECT_NO_THROW(InferenceSession(store, exact));

  // A head the container does not cover: the session serves the container's
  // layers only, so it cannot honour this network.
  nn::Network head_net("head");
  head_net.add<nn::Dense>(32, 24)->set_name("fc6");
  head_net.add<nn::ReLU>();
  head_net.add<nn::Dense>(24, 16)->set_name("fc7");
  head_net.add<nn::ReLU>();
  head_net.add<nn::Dense>(16, 4)->set_name("head");
  EXPECT_THROW(InferenceSession(store, head_net), std::invalid_argument);

  // A Flatten in front (a training net): callers reshape the batch instead.
  nn::Network flat("flatten");
  flat.add<nn::Flatten>();
  flat.add<nn::Dense>(32, 24)->set_name("fc6");
  flat.add<nn::ReLU>();
  flat.add<nn::Dense>(24, 16)->set_name("fc7");
  flat.add<nn::ReLU>();
  flat.add<nn::Dense>(16, 4)->set_name("fc8");
  EXPECT_THROW(InferenceSession(store, flat), std::invalid_argument);

  // Missing ReLU between two container layers.
  nn::Network linear("linear");
  linear.add<nn::Dense>(32, 24)->set_name("fc6");
  linear.add<nn::Dense>(24, 16)->set_name("fc7");
  linear.add<nn::Dense>(16, 4)->set_name("fc8");
  EXPECT_THROW(InferenceSession(store, linear), std::invalid_argument);
}

TEST(InferenceSession, ReleaseLayersUnbindsAndRefetches) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  InferenceSession session(store);
  session.infer(ServeFixture::make_batch(2, 61));
  session.release_layers();
  store.reset_stats();
  session.infer(ServeFixture::make_batch(2, 62));
  EXPECT_EQ(store.stats().lookups(), 3u);  // re-fetched (cache hits)
  EXPECT_EQ(store.stats().hits, 3u);
}

TEST(InferenceSession, ShapeMismatchIsRejectedAtConstruction) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  nn::Network net("bad");
  net.add<nn::Dense>(32, 10)->set_name("fc6");  // container says [24 x 32]
  EXPECT_THROW(InferenceSession(store, net), std::invalid_argument);
}

TEST(InferenceSession, NetworkOverloadNeverReadsTheNetsWeights) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  auto net = ServeFixture::make_net("untouched");
  for (auto* d : net.dense_layers()) {
    d->weight().fill(0.5f);
    d->bias().fill(-0.25f);
  }
  InferenceSession with_net(store, net);
  InferenceSession plain(store);
  auto batch = ServeFixture::make_batch(3, 71);
  auto got = with_net.infer(batch);
  auto expect = plain.infer(batch);
  ASSERT_EQ(got.numel(), expect.numel());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], expect[i]) << "logit " << i;
  }
  // The net keeps its own weights and still trains.
  for (auto* d : net.dense_layers()) {
    EXPECT_EQ(d->weight()[0], 0.5f) << d->name();
  }
  auto y = net.forward(batch, /*train=*/true);
  EXPECT_NO_THROW(net.backward(y));
}

TEST(InferenceSession, BadInputShapeThrows) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  InferenceSession session(store);
  EXPECT_THROW(session.infer(nn::Tensor({2, 31})), std::invalid_argument);
  EXPECT_THROW(session.infer(nn::Tensor({2, 1, 4, 8})), std::invalid_argument);
  session.enable_sparse_forward(true);
  EXPECT_THROW(session.infer(nn::Tensor({16, 33})), std::invalid_argument);
  EXPECT_EQ(store.stats().lookups(), 0u);  // rejected before any fetch
}

TEST(InferenceSession, NonChainingContainerIsRejectedAtConstruction) {
  ServeFixture f;
  // fc6 emits 24 features, fc8 takes 16.
  auto broken = core::encode_model({f.layers[0], f.layers[2]}, {},
                                   core::ContainerOptions{});
  ModelStore store(broken.bytes);
  EXPECT_THROW(check_fc_chain(store.reader()), std::invalid_argument);
  EXPECT_THROW(InferenceSession{store}, std::invalid_argument);
  EXPECT_THROW(make_fc_network(store.reader()), std::invalid_argument);
}

TEST(InferenceSession, WrongLengthBiasIsRejectedWhenTheLayerIsFetched) {
  ServeFixture f;
  auto biases = f.biases;
  biases["fc7"].resize(5);  // fc7 has 16 rows
  auto model = core::encode_model(f.layers, {}, {}, biases);
  ModelStore store(model.bytes);
  InferenceSession session(store);
  EXPECT_THROW(session.infer(ServeFixture::make_batch(2, 81)),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepsz::serve
