// Table 2 (a-d): per-layer compression statistics for all four networks —
// original size, pruning ratio, CSR (two-array) size, and DeepSZ-compressed
// size, with the paper's reported numbers alongside.
//
// LeNet layers come at full paper scale; AlexNet/VGG-16 layers are the
// paper-scale synthesized weights. Error bounds are the ones the paper's
// optimization selected (Section 5.2), so this regenerates the size columns
// under identical settings.
#include <cstdio>

#include "bench_util.h"
#include "core/model_codec.h"

using namespace deepsz;

int main() {
  bench::print_title(
      "Table 2: fc-layers' compression statistics (paper values in "
      "parentheses)",
      "sizes from SZ data stream + Zstandard-class index stream at the "
      "paper's chosen error bounds");

  for (const char* key : {"lenet300", "lenet5", "alexnet", "vgg16"}) {
    const auto& spec = modelzoo::paper_spec(key);
    auto layers = bench::paper_scale_layers(key);

    std::map<std::string, double> ebs;
    for (const auto& fc : spec.fc) ebs[fc.layer] = fc.chosen_eb;
    core::ContainerOptions copts;
    copts.data_codec = core::sz_codec_spec(sz::SzParams{});
    auto model = core::encode_model(layers, ebs, copts);

    std::printf("\n-- %s --\n", spec.name.c_str());
    bench::print_row({"layer", "original", "prune keep", "CSR size",
                      "(paper)", "DeepSZ size", "(paper)", "ratio"},
                     13);
    std::size_t total_dense = 0, total_csr = 0, total_dsz = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const auto& fc = spec.fc[i];
      const auto& st = model.stats[i];
      total_dense += st.dense_bytes;
      total_csr += st.csr_bytes;
      total_dsz += st.total_bytes();
      bench::print_row(
          {fc.layer, bench::fmt_bytes(st.dense_bytes),
           bench::fmt_pct(fc.keep_ratio, 0), bench::fmt_bytes(st.csr_bytes),
           "(" + bench::fmt(fc.paper_csr_kb, 0) + " KB)",
           bench::fmt_bytes(st.total_bytes()),
           "(" + bench::fmt(fc.paper_deepsz_kb, 1) + " KB)",
           bench::fmt(st.compression_ratio(), 1) + "x"},
          13);
    }
    double csr_ratio = static_cast<double>(total_dense) / total_csr;
    double dsz_ratio = static_cast<double>(total_dense) / total_dsz;
    bench::print_row(
        {"overall", bench::fmt_bytes(total_dense), "",
         bench::fmt_bytes(total_csr),
         "(" + bench::fmt(csr_ratio, 1) + "x)", bench::fmt_bytes(total_dsz),
         "(paper " + bench::fmt(spec.paper_overall_cr_deepsz, 1) + "x)",
         bench::fmt(dsz_ratio, 1) + "x"},
        13);
  }
  return 0;
}
