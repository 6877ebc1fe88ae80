// Golden compressed-domain fixture: dc_v3.dszc is a checked-in "dc"-coded
// container (codebook data streams + huffman index streams) that a
// native-form ModelStore must keep decoding to the SAME codebook-CSR
// arrays, forever. A failure here means the dc wire format, the Huffman
// decode, or the codebook-CSR build changed behavior for existing files.
//
// Written by tools/make_golden_fixtures.cpp; regenerate it (and these
// constants, from the tool's output) only for a deliberate format change.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/model_codec.h"
#include "serve/model_store.h"
#include "tests/golden_fixture.h"
#include "util/crc32.h"

namespace deepsz::core {
namespace {

using testing::read_fixture;

/// CRC over the codebook-CSR arrays in the fixed order the fixture tool
/// prints (rowptr, col, id8, id16, codebook) — keep in sync with
/// tools/make_golden_fixtures.cpp.
std::uint32_t codebook_csr_crc(const serve::ServedLayer& l) {
  std::vector<std::uint8_t> blob;
  auto append = [&blob](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    blob.insert(blob.end(), b, b + n);
  };
  append(l.csr_rowptr.data(), l.csr_rowptr.size() * sizeof(std::uint32_t));
  append(l.csr_col.data(), l.csr_col.size() * sizeof(std::uint32_t));
  append(l.csr_id8.data(), l.csr_id8.size());
  append(l.csr_id16.data(), l.csr_id16.size() * sizeof(std::uint16_t));
  append(l.codebook.data(), l.codebook.size() * sizeof(float));
  return util::crc32(blob);
}

std::vector<float> expected_bias() {
  std::vector<float> bias(24);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.01f * static_cast<float>(i) - 0.05f;
  }
  return bias;
}

TEST(GoldenContainer, DcV3FixtureDecodesToCodebookCsrBitExactly) {
  auto bytes = read_fixture("dc_v3.dszc");
  ASSERT_EQ(bytes.size(), 1143u);
  ASSERT_EQ(util::crc32(bytes), 0xe7215805u) << "fixture file changed";

  serve::ModelStoreOptions opts;
  opts.native_form = true;
  serve::ModelStore store(std::move(bytes), opts);
  ASSERT_EQ(store.reader().entries().size(), 2u);

  auto fc6 = store.get("fc6");
  ASSERT_EQ(fc6->form, serve::ServingForm::kCodebookCsr);
  EXPECT_EQ(fc6->rows, 24);
  EXPECT_EQ(fc6->cols, 32);
  EXPECT_EQ(fc6->nnz(), 192u);
  EXPECT_EQ(fc6->codebook.size(), 16u);  // dc:bits=4
  EXPECT_EQ(fc6->csr_id8.size(), 192u);  // k=16 fits u8 ids
  EXPECT_TRUE(fc6->csr_id16.empty());
  EXPECT_TRUE(fc6->dense.empty());
  EXPECT_EQ(codebook_csr_crc(*fc6), 0x8fddce92u)
      << "codebook-CSR decode changed for an existing file";
  EXPECT_EQ(fc6->bias, expected_bias());

  auto fc7 = store.get("fc7");
  ASSERT_EQ(fc7->form, serve::ServingForm::kCodebookCsr);
  EXPECT_EQ(fc7->rows, 16);
  EXPECT_EQ(fc7->cols, 24);
  EXPECT_EQ(fc7->nnz(), 116u);
  EXPECT_EQ(fc7->codebook.size(), 16u);
  EXPECT_EQ(codebook_csr_crc(*fc7), 0x78045389u)
      << "codebook-CSR decode changed for an existing file";
  EXPECT_TRUE(fc7->bias.empty());
}

// The compressed-domain decode and the f32 decode of the same fixture must
// describe the same matrix: identical CSR structure, every weight equal
// through the codebook lookup.
TEST(GoldenContainer, DcV3CodebookFormAgreesWithF32Decode) {
  auto bytes = read_fixture("dc_v3.dszc");
  serve::ModelStoreOptions f32_opts;
  f32_opts.build_csr = true;
  serve::ModelStore f32_store(bytes, f32_opts);
  serve::ModelStoreOptions cb_opts = f32_opts;
  cb_opts.native_form = true;
  serve::ModelStore cb_store(std::move(bytes), cb_opts);

  for (const char* name : {"fc6", "fc7"}) {
    auto ref = f32_store.get(name);
    auto cb = cb_store.get(name);
    SCOPED_TRACE(name);
    ASSERT_EQ(cb->csr_rowptr, ref->csr_rowptr);
    ASSERT_EQ(cb->csr_col, ref->csr_col);
    for (std::size_t nz = 0; nz < cb->nnz(); ++nz) {
      ASSERT_EQ(cb->csr_weight(nz), ref->csr_val[nz]) << "nz=" << nz;
    }
  }
}

}  // namespace
}  // namespace deepsz::core
