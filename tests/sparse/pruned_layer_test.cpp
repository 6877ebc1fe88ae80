#include "sparse/pruned_layer.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace deepsz::sparse {
namespace {

std::vector<float> random_sparse(std::int64_t n, double keep,
                                 std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<float> dense(n, 0.0f);
  for (auto& v : dense) {
    if (rng.uniform() < keep) {
      v = static_cast<float>(rng.laplace(0.05));
      if (v == 0.0f) v = 1e-6f;
    }
  }
  return dense;
}

TEST(PrunedLayer, RoundTripDense) {
  auto dense = random_sparse(64 * 128, 0.1, 1);
  auto layer = PrunedLayer::from_dense(dense, 64, 128, "fc");
  EXPECT_EQ(layer.to_dense(), dense);
}

TEST(PrunedLayer, GapsBeyond255UseFillers) {
  // A single nonzero at position 1000 needs ceil((1000+1)/255)-1 = 3 fillers.
  std::vector<float> dense(2048, 0.0f);
  dense[1000] = 0.5f;
  auto layer = PrunedLayer::from_dense(dense, 1, 2048);
  EXPECT_EQ(layer.data.size(), 4u);  // 3 fillers + 1 real
  EXPECT_EQ(layer.index[0], 255);
  EXPECT_EQ(layer.data[0], 0.0f);
  EXPECT_EQ(layer.to_dense(), dense);
}

TEST(PrunedLayer, DenseAllZeros) {
  std::vector<float> dense(100, 0.0f);
  auto layer = PrunedLayer::from_dense(dense, 10, 10);
  EXPECT_TRUE(layer.data.empty());
  EXPECT_EQ(layer.to_dense(), dense);
}

TEST(PrunedLayer, AllNonzeroConsecutive) {
  std::vector<float> dense = {1, 2, 3, 4, 5};
  auto layer = PrunedLayer::from_dense(dense, 1, 5);
  EXPECT_EQ(layer.data.size(), 5u);
  for (auto idx : layer.index) EXPECT_EQ(idx, 1);  // consecutive deltas
  EXPECT_EQ(layer.to_dense(), dense);
}

TEST(PrunedLayer, CsrBytesIs40BitsPerEntry) {
  auto dense = random_sparse(1000, 0.2, 2);
  auto layer = PrunedLayer::from_dense(dense, 10, 100);
  EXPECT_EQ(layer.csr_bytes(), layer.stored_entries() * 5);
}

TEST(PrunedLayer, SparserIsSmallerDespiteFillers) {
  auto sparse4 = PrunedLayer::from_dense(random_sparse(100000, 0.04, 3), 100, 1000);
  auto sparse20 = PrunedLayer::from_dense(random_sparse(100000, 0.20, 3), 100, 1000);
  EXPECT_LT(sparse4.csr_bytes(), sparse20.csr_bytes());
}

TEST(PrunedLayer, WithDataReplacesValues) {
  auto dense = random_sparse(256, 0.3, 4);
  auto layer = PrunedLayer::from_dense(dense, 16, 16);
  std::vector<float> newdata(layer.data.size(), 9.0f);
  auto replaced = layer.with_data(newdata);
  EXPECT_EQ(replaced.data, newdata);
  EXPECT_EQ(replaced.index, layer.index);
  std::vector<float> wrong(layer.data.size() + 1);
  EXPECT_THROW(layer.with_data(wrong), std::invalid_argument);
}

TEST(PrunedLayer, SizeMismatchThrows) {
  std::vector<float> dense(10);
  EXPECT_THROW(PrunedLayer::from_dense(dense, 3, 4), std::invalid_argument);
}

TEST(PrunedLayer, ExtremeGapAtMatrixEnd) {
  std::vector<float> dense(100000, 0.0f);
  dense[0] = 1.0f;
  dense[99999] = 2.0f;
  auto layer = PrunedLayer::from_dense(dense, 100, 1000);
  EXPECT_EQ(layer.to_dense(), dense);
}

TEST(PrunedLayer, ToDenseRejectsZeroDelta) {
  // from_dense never emits a 0 delta; a forged one must not overwrite the
  // previous entry (mid-stream) or land before the matrix (first entry).
  for (auto index : {std::vector<std::uint8_t>{2, 0, 1},
                     std::vector<std::uint8_t>{0, 1}}) {
    PrunedLayer l;
    l.rows = 2;
    l.cols = 4;
    l.index = index;
    l.data.assign(index.size(), 1.0f);
    EXPECT_THROW(l.to_dense(), std::runtime_error);
  }
}

TEST(Csr, RoundTripAndSizes) {
  auto dense = random_sparse(64 * 64, 0.1, 5);
  auto csr = CsrMatrix::from_dense(dense, 64, 64);
  EXPECT_EQ(csr.to_dense(), dense);
  // The paper's two-array format beats 3-array CSR at these densities.
  auto two = PrunedLayer::from_dense(dense, 64, 64);
  EXPECT_LT(two.csr_bytes(), csr.bytes());
}

}  // namespace
}  // namespace deepsz::sparse
