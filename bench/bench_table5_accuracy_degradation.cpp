// Table 5: inference accuracy degradation of the three methods at comparable
// compression ratios, without any retraining after encoding.
//
// DeepSZ runs its optimized error bounds; Deep Compression's codebook width
// is matched to DeepSZ's achieved bits-per-weight; Weightless uses its
// default 4-bit clusters. Claim to reproduce: at matched rates, codebook
// quantization and Bloomier encoding lose far more accuracy than
// error-bounded compression.
#include <cmath>
#include <cstdio>

#include "baselines/deep_compression.h"
#include "baselines/weightless.h"
#include "bench_util.h"
#include "core/accuracy.h"
#include "core/model_codec.h"
#include "core/optimizer.h"
#include "core/pruner.h"

using namespace deepsz;

int main() {
  bench::print_title(
      "Table 5: accuracy degradation at comparable compression ratios "
      "(paper values in parentheses)",
      "no retraining after encoding for any method");

  bench::print_row({"network", "DeepComp drop", "(paper)", "Weightless drop",
                    "(paper)", "DeepSZ drop", "(paper)", "bits/weight"},
                   16);
  for (const char* key : {"lenet300", "lenet5", "alexnet", "vgg16"}) {
    const auto& spec = modelzoo::paper_spec(key);
    auto pm = bench::pretrained_pruned(key);
    auto layers = core::extract_pruned_layers(pm.net);
    core::CachedHeadOracle oracle(pm.net, pm.test.images, pm.test.labels);
    const double baseline = oracle.top1();

    // DeepSZ at the assessment+optimizer configuration.
    core::AssessmentConfig cfg;
    cfg.expected_acc_loss = bench::assessment_budget(spec, pm.test.size());
    auto assessments = core::assess_error_bounds(pm.net, layers, oracle, cfg);
    auto joint_drop = [&](const core::OptimizerResult& candidate) {
      std::vector<sparse::PrunedLayer> reconstructed;
      for (std::size_t i = 0; i < candidate.choices.size(); ++i) {
        sz::SzParams params;
        params.error_bound = candidate.choices[i].eb;
        auto data = sz::decompress(sz::compress(layers[i].data, params));
        reconstructed.push_back(layers[i].with_data(std::move(data)));
      }
      core::load_layers_into_network(reconstructed, pm.net);
      double drop = baseline - oracle.top1();
      core::load_layers_into_network(layers, pm.net);
      return drop;
    };
    auto chosen = core::optimize_for_accuracy_validated(
        assessments, cfg.expected_acc_loss, joint_drop);
    std::map<std::string, double> ebs;
    for (const auto& c : chosen.choices) ebs[c.layer] = c.eb;
    core::ContainerOptions copts;
    copts.data_codec = core::sz_codec_spec(sz::SzParams{});
    auto model = core::encode_model(layers, ebs, copts);

    std::vector<sparse::PrunedLayer> dsz_layers;
    {
      auto decoded = core::decode_model(model.bytes, false);
      dsz_layers = std::move(decoded.layers);
    }
    core::load_layers_into_network(dsz_layers, pm.net);
    double dsz_drop = baseline - oracle.top1();
    core::load_layers_into_network(layers, pm.net);

    // Achieved bits per stored weight -> Deep Compression's matched width.
    std::size_t stored = 0;
    for (const auto& l : layers) stored += l.stored_entries();
    std::size_t data_bytes = 0;
    for (const auto& s : model.stats) data_bytes += s.data_bytes;
    double bits_per_weight = 8.0 * data_bytes / static_cast<double>(stored);
    int dc_bits = std::max(1, static_cast<int>(std::round(bits_per_weight)));

    // Deep Compression at the matched bit width.
    std::vector<sparse::PrunedLayer> dc_layers;
    baselines::DeepCompressionParams dc_params;
    dc_params.bits = dc_bits;
    for (const auto& l : layers) {
      dc_layers.push_back(
          baselines::dc_decode(baselines::dc_encode(l, dc_params).blob));
    }
    core::load_layers_into_network(dc_layers, pm.net);
    double dc_drop = baseline - oracle.top1();
    core::load_layers_into_network(layers, pm.net);

    // Weightless (4-bit clusters, default guard bits).
    std::vector<sparse::PrunedLayer> wl_layers;
    for (const auto& l : layers) {
      auto blob = baselines::weightless_encode(l).blob;
      auto dense = baselines::weightless_decode(blob);
      wl_layers.push_back(
          sparse::PrunedLayer::from_dense(dense, l.rows, l.cols, l.name));
    }
    core::load_layers_into_network(wl_layers, pm.net);
    double wl_drop = baseline - oracle.top1();
    core::load_layers_into_network(layers, pm.net);

    auto paper_cell = [](double v) { return "(" + bench::fmt(v, 2) + "%)"; };
    bench::print_row(
        {spec.name, bench::fmt_pct(dc_drop),
         paper_cell(spec.paper_acc_drop_deepcomp), bench::fmt_pct(wl_drop),
         key == std::string("vgg16") ? "(>3.0%)" : "(-)",
         bench::fmt_pct(dsz_drop), paper_cell(spec.paper_acc_drop_deepsz),
         bench::fmt(bits_per_weight, 1)},
        16);
  }
  return 0;
}
