#include "serve/inference_session.h"

#include <stdexcept>

#include "nn/network.h"
#include "serve/sparse_forward.h"
#include "tensor/gemm.h"
#include "util/timer.h"

namespace deepsz::serve {
namespace {

// y = x W^T + b, then ReLU unless this is the last layer — the arithmetic
// nn::Dense::forward and nn::ReLU::forward perform, in the same order, so
// results are bit-exact with a network holding the same weights.
tensor::Tensor dense_layer_forward(const ServedLayer& layer,
                                   const tensor::Tensor& x, bool relu) {
  const std::int64_t n = x.dim(0);
  tensor::Tensor y({n, layer.rows});
  tensor::gemm_nt(n, layer.rows, layer.cols, x.data(), layer.dense.data(),
                  y.data());
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = y.data() + i * layer.rows;
    for (std::int64_t j = 0; j < layer.rows; ++j) {
      row[j] += layer.bias.empty() ? 0.0f : layer.bias[j];
    }
  }
  if (relu) {
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      if (!(y[i] > 0.0f)) y[i] = 0.0f;
    }
  }
  return y;
}

}  // namespace

InferenceSession::InferenceSession(ModelStore& store) : store_(store) {
  check_fc_chain(store_.reader());
  chain_.resize(store_.reader().num_layers());
}

InferenceSession::InferenceSession(ModelStore& store, const nn::Network& net)
    : InferenceSession(store) {
  const auto& entries = store_.reader().entries();
  const auto& layers = net.layers();
  bool match = layers.size() == 2 * entries.size() - 1;
  for (std::size_t i = 0; match && i < layers.size(); ++i) {
    if (i % 2 == 1) {
      match = dynamic_cast<const nn::ReLU*>(layers[i].get()) != nullptr;
      continue;
    }
    const auto* dense = dynamic_cast<const nn::Dense*>(layers[i].get());
    const auto& e = entries[i / 2];
    match = dense != nullptr && dense->name() == e.name &&
            dense->in_features() == e.cols && dense->out_features() == e.rows;
  }
  if (!match) {
    throw std::invalid_argument("InferenceSession: network \"" + net.name() +
                                "\" is not the container's Dense/ReLU chain");
  }
}

void InferenceSession::release_layers() {
  for (auto& layer : chain_) layer.reset();
}

const ServedLayer& InferenceSession::pin(std::size_t i) {
  if (!chain_[i]) {
    // First time a request reaches the layer: fetch the decoded form (cache
    // hit, coalesced wait, or an actual decode).
    const core::ContainerEntry& e = store_.reader().entry(i);
    util::WallTimer wait;
    auto served = store_.get(e.name);
    stats_.decode_wait_ms += wait.millis();
    if (!served->bias.empty() &&
        served->bias.size() != static_cast<std::size_t>(served->rows)) {
      throw std::invalid_argument("InferenceSession: layer \"" + e.name +
                                  "\" has a bias of " +
                                  std::to_string(served->bias.size()) +
                                  " element(s) for " +
                                  std::to_string(served->rows) + " rows");
    }
    chain_[i] = std::move(served);
    ++stats_.layer_installs;
  }
  return *chain_[i];
}

tensor::Tensor InferenceSession::infer(const tensor::Tensor& batch) {
  const std::int64_t in = store_.reader().entries().front().cols;
  if (batch.ndim() != 2 || batch.dim(1) != in) {
    throw std::invalid_argument("InferenceSession: bad input shape " +
                                batch.shape_str() + ", expected [N, " +
                                std::to_string(in) + "]");
  }
  const std::int64_t n = batch.dim(0);

  const bool want_sparse = sparse_enabled_ && sparse_forward_profitable(n);
  // A native-form store may serve codebook layers, which only the kernel
  // path can run — so the chain is pinned (its forms discovered) before the
  // first layer computes, even when the sparse path is not otherwise wanted.
  bool kernel = false;
  if (want_sparse || store_.options().native_form) {
    bool csr = true;
    bool codebook = false;
    for (std::size_t i = 0; i < chain_.size(); ++i) {
      const ServedLayer& layer = pin(i);
      csr = csr && layer.has_csr();
      codebook = codebook || layer.form == ServingForm::kCodebookCsr;
    }
    kernel = codebook || (want_sparse && csr);
  }

  tensor::Tensor y;
  if (kernel) {
    util::WallTimer compute;
    y = sparse_fc_forward(chain_, batch);
    stats_.compute_ms += compute.millis();
  } else {
    for (std::size_t i = 0; i < chain_.size(); ++i) {
      const ServedLayer& layer = pin(i);
      util::WallTimer compute;
      y = dense_layer_forward(layer, i == 0 ? batch : y,
                              /*relu=*/i + 1 < chain_.size());
      stats_.compute_ms += compute.millis();
    }
  }
  ++stats_.requests;
  stats_.samples += static_cast<std::uint64_t>(n);
  return y;
}

void check_fc_chain(const core::ContainerReader& reader) {
  const auto& entries = reader.entries();
  if (entries.empty()) {
    throw std::invalid_argument("check_fc_chain: container has no layers");
  }
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].rows != entries[i].cols) {
      throw std::invalid_argument(
          "check_fc_chain: " + entries[i - 1].name + " [" +
          std::to_string(entries[i - 1].rows) + " out] does not feed " +
          entries[i].name + " [" + std::to_string(entries[i].cols) + " in]");
    }
  }
}

nn::Network make_fc_network(const core::ContainerReader& reader,
                            const std::string& name) {
  check_fc_chain(reader);
  const auto& entries = reader.entries();
  nn::Network net(name);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    net.add<nn::Dense>(entries[i].cols, entries[i].rows)
        ->set_name(entries[i].name);
    if (i + 1 < entries.size()) net.add<nn::ReLU>();
  }
  return net;
}

}  // namespace deepsz::serve
