// Edge-deployment scenario (the paper's motivating use case, Section 1):
// a model is trained and compressed "in the cloud", transferred over a
// bandwidth-limited link, and decoded on the device before inference.
//
// This example quantifies exactly what DeepSZ buys on that path for the
// AlexNet-style network: transfer bytes at 2G/3G/4G link speeds, decode
// latency, and the accuracy retained — compared against shipping the raw
// fp32 fc-layers or the CSR-pruned network.
#include <cstdio>

#include "compress/registry.h"
#include "compress/session.h"
#include "modelzoo/paper_specs.h"
#include "modelzoo/pretrained.h"
#include "util/timer.h"

namespace {

void print_transfer(const char* label, std::size_t bytes) {
  // Link speeds: 2G ~0.1 Mbit/s effective, 3G ~2 Mbit/s, 4G ~20 Mbit/s.
  const double mbits = bytes * 8.0 / 1e6;
  std::printf("  %-22s %10.1f KB   2G: %7.1f s   3G: %6.2f s   4G: %5.2f s\n",
              label, bytes / 1024.0, mbits / 0.1, mbits / 2.0, mbits / 20.0);
}

}  // namespace

int main() {
  using namespace deepsz;
  auto m = modelzoo::pretrained("alexnet");
  const auto& spec = modelzoo::paper_spec("alexnet");

  compress::CompressSpec cspec;
  for (const auto& fc : spec.fc) {
    cspec.prune.keep_ratio[fc.layer] = fc.keep_ratio;
  }
  cspec.prune.retrain_epochs = 2;
  cspec.expected_acc_loss = 0.004;
  // Index arrays ride any registered lossless codec; Zstandard-class is the
  // deepsz strategy's default ("gzip", "huffman", "blosc:typesize=1", ...
  // also work — see `deepsz_tool codecs`).
  cspec.index_codec = "zstd";

  compress::CompressionSession session(
      compress::CompressorRegistry::instance().make("deepsz"), m.net,
      m.train.images, m.train.labels, m.test.images, m.test.labels,
      std::move(cspec));
  auto report = session.run();

  std::printf("AlexNet-mini on synthetic ImageNet-20\n");
  std::printf("cloud-side encode took %.1f s (no retraining needed)\n\n",
              report.encode_seconds);
  std::printf("transfer cost of the fc-layers:\n");
  print_transfer("raw fp32", report.dense_fc_bytes);
  print_transfer("pruned CSR", report.csr_bytes);
  print_transfer("DeepSZ", report.model.compressed_payload_bytes());

  std::printf("\ndevice-side decode: %.1f ms total (lossless %.1f ms, SZ %.1f "
              "ms, matrix rebuild %.1f ms)\n",
              report.decode_timing.total_ms(),
              report.decode_timing.lossless_ms, report.decode_timing.sz_ms,
              report.decode_timing.reconstruct_ms);

  // Inference cost dwarfs decode cost, as the paper argues.
  util::WallTimer timer;
  auto batch = nn::slice_batch(m.test.images, 0, 50);
  m.net.forward(batch);
  std::printf("one 50-image forward pass: %.1f ms (decode is %.1f%% of it)\n",
              timer.millis(),
              100.0 * report.decode_timing.total_ms() / timer.millis());

  std::printf("\naccuracy: %.2f%% original -> %.2f%% deployed (top-1), "
              "%.2f%% -> %.2f%% (top-5)\n",
              report.acc_original.top1 * 100, report.acc_decoded.top1 * 100,
              report.acc_original.top5 * 100, report.acc_decoded.top5 * 100);
  return 0;
}
