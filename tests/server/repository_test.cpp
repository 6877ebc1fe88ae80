// ModelRepository: versioned load/unload/reload, hot-swap draining, and the
// shared decode-cache budget with cross-model LRU pressure.
#include "server/model_repository.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "serve/inference_session.h"
#include "tests/server/test_containers.h"

namespace deepsz::server {
namespace {

using testing::make_container;
using testing::tiny_container;

TEST(ModelRepository, LoadGetListUnload) {
  ModelRepository repo;
  EXPECT_EQ(repo.get("a"), nullptr);
  EXPECT_EQ(repo.size(), 0u);

  auto a = repo.load("a", tiny_container(1));
  auto b = repo.load("b", make_container({16, 8}, 2));
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_EQ(repo.get("a"), a);
  EXPECT_EQ(a->version, 1u);
  EXPECT_EQ(b->version, 2u);
  EXPECT_EQ(a->in_features, 32);
  EXPECT_EQ(a->out_features, 16);
  EXPECT_EQ(b->in_features, 16);
  EXPECT_EQ(b->out_features, 8);

  auto list = repo.list();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0]->name, "a");  // name-sorted
  EXPECT_EQ(list[1]->name, "b");

  EXPECT_TRUE(repo.unload("a"));
  EXPECT_FALSE(repo.unload("a"));
  EXPECT_EQ(repo.get("a"), nullptr);
  EXPECT_EQ(repo.size(), 1u);
}

TEST(ModelRepository, RejectsBadLoads) {
  ModelRepository repo;
  EXPECT_THROW(repo.load("", tiny_container()), std::invalid_argument);
  EXPECT_THROW(repo.load("x", {1, 2, 3}), std::runtime_error);
  // Non-chaining fc stack: 32->24 then 99->16 cannot serve.
  std::vector<sparse::PrunedLayer> broken;
  broken.push_back(data::synthesize_pruned_layer("fc1", 24, 32, 0.2, 1));
  broken.push_back(data::synthesize_pruned_layer("fc2", 16, 99, 0.2, 2));
  EXPECT_THROW(
      repo.load("x",
                core::encode_model(broken, {}, core::ContainerOptions{}).bytes),
      std::invalid_argument);
  EXPECT_EQ(repo.size(), 0u);
}

TEST(ModelRepository, HotSwapBumpsVersionAndDrainsOldStore) {
  ModelRepository repo;
  auto v1 = repo.load("m", tiny_container(1));
  auto layer = v1->store->get("fc1");  // decode something on v1

  auto v2 = repo.load("m", tiny_container(2));
  EXPECT_GT(v2->version, v1->version);
  EXPECT_EQ(repo.get("m"), v2);
  EXPECT_EQ(repo.size(), 1u);

  // The old snapshot keeps serving for holders; its decoded bytes stay
  // charged until the last reference drops, then the budget drains.
  const auto used_both = repo.budget()->used_bytes();
  EXPECT_GE(used_both, layer->bytes());
  auto old_bytes = layer->bytes();
  layer.reset();
  v1.reset();
  EXPECT_EQ(repo.budget()->used_bytes(), used_both - old_bytes);
}

TEST(ModelRepository, BadHotSwapKeepsServingOldVersion) {
  ModelRepository repo;
  auto v1 = repo.load("m", tiny_container(1));
  EXPECT_THROW(repo.load("m", {0xde, 0xad}), std::runtime_error);
  EXPECT_EQ(repo.get("m"), v1);  // swap never happened
}

TEST(ModelRepository, ReloadRereadsSourceFile) {
  const std::string path = ::testing::TempDir() + "repo_reload.dszc";
  {
    auto bytes = tiny_container(3);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  ModelRepository repo;
  auto v1 = repo.load_file("m", path);
  EXPECT_EQ(v1->source_path, path);
  auto v2 = repo.reload("m");
  EXPECT_GT(v2->version, v1->version);
  EXPECT_EQ(repo.get("m"), v2);

  EXPECT_THROW(repo.reload("nope"), std::out_of_range);
  repo.load("mem", tiny_container(4));  // loaded from memory: no path
  EXPECT_THROW(repo.reload("mem"), std::logic_error);
  std::remove(path.c_str());
}

TEST(ModelRepository, SharedBudgetEvictsAcrossModels) {
  // Budget sized for ~one decoded model: decoding model B must evict model
  // A's layers (cross-model pressure), not fail.
  ModelRepository probe_repo;
  auto probe = probe_repo.load("p", tiny_container(1));
  probe->store->warmup(false);
  const std::size_t one_model = probe_repo.budget()->used_bytes();
  ASSERT_GT(one_model, 0u);

  ModelRepository repo(one_model + one_model / 4);
  auto a = repo.load("a", tiny_container(1));
  auto b = repo.load("b", tiny_container(2));
  a->store->warmup(false);
  EXPECT_EQ(repo.budget()->evictions(), 0u);
  b->store->warmup(false);

  // Global budget held, and the pressure landed on model A (the LRU one).
  EXPECT_LE(repo.budget()->used_bytes(), repo.budget()->budget_bytes());
  EXPECT_GT(repo.budget()->evictions(), 0u);
  EXPECT_GT(a->store->stats().evictions, 0u);
  EXPECT_EQ(b->store->stats().evictions, 0u);

  // A evicted layer is still servable — it just decodes again.
  auto again = a->store->get("fc1");
  EXPECT_EQ(again->rows, 24);
  EXPECT_EQ(again->cols, 32);
}

TEST(ModelRepository, HitRefreshesGlobalRecency) {
  // Keep touching a's layers while b warms: the cross-model victim must
  // never be the layer we keep hot.
  ModelRepository probe_repo;
  auto probe = probe_repo.load("p", tiny_container(1));
  probe->store->warmup(false);
  const std::size_t one_model = probe_repo.budget()->used_bytes();

  // Room for everything except one small layer, so warming b evicts
  // exactly the globally-oldest entry.
  ModelRepository repo(2 * one_model - one_model / 8);
  auto a = repo.load("a", tiny_container(1));
  a->store->warmup(false);
  auto hot = a->store->get("fc1");  // freshest stamp in model a

  auto b = repo.load("b", tiny_container(2));
  b->store->warmup(false);  // forces evictions somewhere

  EXPECT_LE(repo.budget()->used_bytes(), repo.budget()->budget_bytes());
  EXPECT_NE(a->store->peek("fc1"), nullptr)
      << "globally-LRU eviction evicted the most recently touched layer";
}

TEST(ModelRepository, ServesThroughInferenceSession) {
  ModelRepository repo;
  auto m = repo.load("m", tiny_container(5));
  serve::InferenceSession session(*m->store);
  tensor::Tensor x({4, m->in_features});
  x.fill(0.25f);
  auto y = session.infer(x);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), m->out_features);
}

}  // namespace
}  // namespace deepsz::server
