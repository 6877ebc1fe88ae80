// Differential test of the direct CSR build (serve::fill_csr, one walk over
// the decoded position deltas) against the CSR the store used to derive:
// inflate the two arrays to a dense matrix, then scan every row x col
// keeping value != 0.0f. The reference lives here only. Both must keep
// exactly the same entries in the same order with bit-identical values —
// on every zoo layer, every golden fixture, and the edge cases the scan
// handles implicitly: nonzero fillers, -0.0f and 0.0f entries, empty rows.
//
// Also: a forged container with a zero position delta fails the same way
// in every store configuration (default, build_csr, native).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "modelzoo/paper_specs.h"
#include "modelzoo/zoo.h"
#include "serve/model_store.h"
#include "tests/golden_fixture.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace deepsz::serve {
namespace {

/// The pre-walk CSR build: to_dense, then a row-major scan.
ServedLayer reference_csr(const sparse::PrunedLayer& layer) {
  ServedLayer out;
  out.rows = layer.rows;
  out.cols = layer.cols;
  const auto dense = layer.to_dense();
  out.csr_rowptr.push_back(0);
  for (std::int64_t r = 0; r < layer.rows; ++r) {
    const float* row = dense.data() + r * layer.cols;
    for (std::int64_t c = 0; c < layer.cols; ++c) {
      if (row[c] != 0.0f) {
        out.csr_col.push_back(static_cast<std::uint32_t>(c));
        out.csr_val.push_back(row[c]);
      }
    }
    out.csr_rowptr.push_back(static_cast<std::uint32_t>(out.csr_col.size()));
  }
  return out;
}

ServedLayer direct_csr(const sparse::PrunedLayer& layer) {
  ServedLayer out;
  out.rows = layer.rows;
  out.cols = layer.cols;
  fill_csr(layer, out);
  return out;
}

void expect_same_csr(const ServedLayer& got, const ServedLayer& want,
                     const std::string& what) {
  ASSERT_EQ(got.csr_rowptr, want.csr_rowptr) << what;
  ASSERT_EQ(got.csr_col, want.csr_col) << what;
  ASSERT_EQ(got.csr_val.size(), want.csr_val.size()) << what;
  EXPECT_EQ(std::memcmp(got.csr_val.data(), want.csr_val.data(),
                        got.csr_val.size() * sizeof(float)),
            0)
      << what << ": csr_val bits differ";
}

/// Checks fill_csr against the reference on one decoded layer, then what a
/// native-form store serves for the same layer of `container`.
void check_layer(const sparse::PrunedLayer& layer,
                 const std::vector<std::uint8_t>* container,
                 const std::string& what) {
  const ServedLayer want = reference_csr(layer);
  expect_same_csr(direct_csr(layer), want, what);
  if (!container) return;
  ModelStoreOptions opts;
  opts.native_form = true;
  ModelStore store(*container, opts);
  const auto served = store.get(layer.name);
  if (served->form == ServingForm::kSparseCsr) {
    EXPECT_TRUE(served->dense.empty()) << what;
    expect_same_csr(*served, want, what + " (native store)");
  } else {
    ASSERT_EQ(served->form, ServingForm::kDenseF32) << what;
    EXPECT_EQ(served->dense, layer.to_dense()) << what;
  }
}

sparse::PrunedLayer layer_of(std::int64_t rows, std::int64_t cols,
                             std::vector<std::uint8_t> index,
                             std::vector<float> data) {
  sparse::PrunedLayer l;
  l.name = "fc1";
  l.rows = rows;
  l.cols = cols;
  l.index = std::move(index);
  l.data = std::move(data);
  return l;
}

// Every fc layer of the four zoo networks at the paper's keep ratio and
// chosen error bound, through a real SZ encode/decode: the data arrays hold
// SZ reconstructions, fillers included.
TEST(CsrBuildDifferential, ZooLayersMatchDenseScan) {
  for (const char* key : {"lenet300", "lenet5", "alexnet", "vgg16"}) {
    auto net = modelzoo::make_by_key(key);
    const auto& spec = modelzoo::paper_spec(key);
    const auto dense_layers = net.dense_layers();
    ASSERT_EQ(dense_layers.size(), spec.fc.size()) << key;
    for (std::size_t i = 0; i < dense_layers.size(); ++i) {
      const auto* d = dense_layers[i];
      const auto& fc = spec.fc[i];
      auto layer = data::synthesize_pruned_layer(
          fc.layer, d->out_features(), d->in_features(), fc.keep_ratio,
          1000 + i);
      const auto bytes =
          core::encode_model({layer}, {{fc.layer, fc.chosen_eb}}).bytes;
      const auto decoded = core::ContainerReader(bytes).decode_layer(0);
      check_layer(decoded, &bytes, std::string(key) + "/" + fc.layer);
      if (util::have_avx2_fma()) {
        ModelStoreOptions opts;
        opts.native_form = true;
        EXPECT_EQ(ModelStore(bytes, opts).get(fc.layer)->form,
                  ServingForm::kSparseCsr)
            << key << "/" << fc.layer << " kept " << fc.keep_ratio;
      }
    }
  }
}

TEST(CsrBuildDifferential, GoldenFixturesMatchDenseScan) {
  for (const char* name : {"indexed_v3.dszc", "legacy_v2.dszc", "dc_v3.dszc",
                           "delta_base_v3.dszc"}) {
    const auto bytes = deepsz::testing::read_fixture(name);
    core::ContainerReader reader(bytes);
    ASSERT_GT(reader.num_layers(), 0u) << name;
    // A "dc" fixture serves as codebook-CSR, compared in
    // forward_equivalence_test; only its f32 decode is checked here.
    const bool dc = native_form_for_codec_spec(reader.entry(std::size_t{0})
                                                   .data.codec) ==
                    ServingForm::kCodebookCsr;
    for (std::size_t i = 0; i < reader.num_layers(); ++i) {
      check_layer(reader.decode_layer(i), dc ? nullptr : &bytes,
                  std::string(name) + "/" + reader.entry(i).name);
    }
  }
  // The delta fixture decodes through its base.
  const auto base = deepsz::testing::read_fixture("delta_base_v3.dszc");
  core::ContainerReader delta(deepsz::testing::read_fixture("delta_v3.dszc"));
  delta.set_base(std::make_shared<core::ContainerReader>(base));
  for (std::size_t i = 0; i < delta.num_layers(); ++i) {
    check_layer(delta.decode_layer(i), nullptr,
                "delta_v3.dszc/" + delta.entry(i).name);
  }
}

TEST(CsrBuildDifferential, NonzeroFillersStayIn) {
  // 3 x 300: a value at 0, a filler at 255 whose reconstruction is nonzero
  // (as SZ may return for a stored 0.0f), a value at 400 = (1, 100), and a
  // filler that reconstructs to exactly 0.0f at 655 = (2, 55).
  const auto layer = layer_of(3, 300, {1, 255, 145, 255},
                              {1.0f, 0.004f, 2.0f, 0.0f});
  const auto got = direct_csr(layer);
  expect_same_csr(got, reference_csr(layer), "fillers");
  EXPECT_EQ(got.csr_rowptr, (std::vector<std::uint32_t>{0, 2, 3, 3}));
  EXPECT_EQ(got.csr_col, (std::vector<std::uint32_t>{0, 255, 100}));
  EXPECT_EQ(got.csr_val, (std::vector<float>{1.0f, 0.004f, 2.0f}));
}

TEST(CsrBuildDifferential, NegativeAndPositiveZeroDropOut) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto layer = layer_of(2, 4, {1, 1, 2, 1, 2},
                              {-0.0f, 3.0f, 0.0f, nan, -1.0f});
  const auto got = direct_csr(layer);
  expect_same_csr(got, reference_csr(layer), "signed zeros");
  // Positions 0 (-0.0f) and 3 (0.0f) drop; NaN compares != 0.0f and stays.
  EXPECT_EQ(got.csr_rowptr, (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(got.csr_col, (std::vector<std::uint32_t>{1, 0, 2}));
  for (float v : got.csr_val) EXPECT_NE(v, 0.0f);
}

TEST(CsrBuildDifferential, EmptyLeadingMiddleAndTrailingRows) {
  // 6 x 10 with entries only in rows 1 and 4.
  std::vector<float> dense(60, 0.0f);
  dense[1 * 10 + 0] = 0.5f;
  dense[1 * 10 + 9] = -0.25f;
  dense[4 * 10 + 3] = 1.5f;
  const auto layer = sparse::PrunedLayer::from_dense(dense, 6, 10, "fc1");
  const auto got = direct_csr(layer);
  expect_same_csr(got, reference_csr(layer), "empty rows");
  EXPECT_EQ(got.csr_rowptr,
            (std::vector<std::uint32_t>{0, 0, 2, 2, 2, 3, 3}));
  // And a layer with no entries at all.
  const auto empty = layer_of(3, 5, {}, {});
  expect_same_csr(direct_csr(empty), reference_csr(empty), "no entries");
}

TEST(CsrBuildDifferential, RandomLayersMatchDenseScan) {
  // Random shapes (down to one column, where one delta wraps many rows) and
  // random two-array content: any delta in 1..255, values drawn from
  // normals, exact zeros of both signs and fillers.
  util::Pcg32 rng(0xc5b);
  for (int t = 0; t < 300; ++t) {
    const std::int64_t rows = 1 + static_cast<std::int64_t>(rng.uniform() * 40);
    const std::int64_t cols = 1 + static_cast<std::int64_t>(rng.uniform() * 70);
    sparse::PrunedLayer layer = layer_of(rows, cols, {}, {});
    std::int64_t pos = -1;
    while (true) {
      const auto d = static_cast<std::uint8_t>(
          rng.uniform() < 0.1 ? 255 : 1 + rng.uniform() * 20);
      if (pos + d >= rows * cols) break;
      pos += d;
      const double u = rng.uniform();
      layer.index.push_back(d);
      layer.data.push_back(u < 0.1   ? 0.0f
                           : u < 0.2 ? -0.0f
                                     : static_cast<float>(rng.normal(0, 1)));
    }
    expect_same_csr(direct_csr(layer), reference_csr(layer),
                    "case " + std::to_string(t));
  }
}

TEST(CsrBuildDifferential, RejectsZeroDeltaOverrunAndLengthMismatch) {
  const auto expect_error = [](const sparse::PrunedLayer& layer,
                               const std::string& needle) {
    try {
      direct_csr(layer);
      FAIL() << needle << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(layer.to_dense(), std::runtime_error) << needle;
  };
  expect_error(layer_of(4, 8, {5, 0, 3}, {1, 1, 1}), "zero position delta");
  expect_error(layer_of(4, 8, {0}, {1}), "zero position delta");
  expect_error(layer_of(4, 8, {30, 3}, {1, 1}), "index overruns matrix");
  expect_error(layer_of(0, 8, {1}, {1}), "index overruns matrix");
  expect_error(layer_of(4, 8, {1, 2}, {1}), "length mismatch");
}

// ------------------------------------------------------------------------
// A forged (but correctly signed) container with a zero position delta
// fails the same way whatever the store's options.
// ------------------------------------------------------------------------

std::vector<std::uint8_t> zero_delta_container(std::size_t entries) {
  std::vector<std::uint8_t> index(entries, 1);
  index[entries / 2] = 0;
  const auto layer =
      layer_of(4, 8, std::move(index), std::vector<float>(entries, 0.5f));
  core::ContainerOptions copts;
  copts.data_codec = "f32";
  return core::encode_model({layer}, {}, copts).bytes;
}

void expect_zero_delta_rejected(const ModelStoreOptions& opts,
                                std::size_t entries) {
  ModelStore store(zero_delta_container(entries), opts);
  try {
    store.get("fc1");
    FAIL() << "zero delta accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("zero position delta"),
              std::string::npos)
        << e.what();
  }
}

TEST(CsrBuildDifferential, ZeroDeltaRejectedByDefaultStore) {
  expect_zero_delta_rejected({}, 3);
}

TEST(CsrBuildDifferential, ZeroDeltaRejectedByBuildCsrStore) {
  ModelStoreOptions opts;
  opts.build_csr = true;
  expect_zero_delta_rejected(opts, 3);
}

TEST(CsrBuildDifferential, ZeroDeltaRejectedByNativeStore) {
  ModelStoreOptions opts;
  opts.native_form = true;
  expect_zero_delta_rejected(opts, 3);   // 3 / 32 stored: CSR-only
  expect_zero_delta_rejected(opts, 20);  // 20 / 32 stored: dense-only
}

}  // namespace
}  // namespace deepsz::serve
