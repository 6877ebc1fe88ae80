// Batched inference straight from a ModelStore's decoded layers.
//
// A session serves the container's fc stack — entry i is a [rows x cols]
// layer, with ReLU between consecutive layers — from the store's
// ServedLayers; it holds one pin (shared_ptr) per entry and builds no
// nn::Network. The first time a request reaches a layer, the session
// fetches it from the store's layer-decode cache, so first-request latency
// pays codec work only for the layers the pass reaches, interleaved with
// the compute of the layers before them; once every layer is pinned,
// steady-state requests do zero codec work and never consult the store.
//
// A session is single-threaded (it owns its pins and counters);
// concurrency comes from running one session per worker thread over one
// shared ModelStore — the cache coalesces duplicate decodes, so N cold
// sessions still decode each layer exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/model_store.h"
#include "tensor/tensor.h"

namespace deepsz::nn {
class Network;
}

namespace deepsz::serve {

/// Per-session counters; decode_wait_ms includes time spent waiting for
/// another session's coalesced decode, so it measures observed latency, not
/// codec work attributable to this session.
struct SessionStats {
  std::uint64_t requests = 0;
  std::uint64_t samples = 0;         // total batch rows served
  std::uint64_t layer_installs = 0;  // store fetches
  double decode_wait_ms = 0.0;       // blocked on ModelStore::get
  double compute_ms = 0.0;           // forward-pass time
};

class InferenceSession {
 public:
  /// Serves `store`'s fc chain. Throws std::invalid_argument when the
  /// container's layers do not form one (check_fc_chain). `store` must
  /// outlive the session. Decodes nothing until the first request.
  explicit InferenceSession(ModelStore& store);

  /// The same session, after checking that `net` is exactly the container's
  /// Dense/ReLU chain (layer names and shapes); std::invalid_argument
  /// otherwise. The net's weights are never read.
  InferenceSession(ModelStore& store, const nn::Network& net);

  /// Opts this session into running the sparse kernel over layers that
  /// keep a dense matrix AND a CSR copy (a store with
  /// ModelStoreOptions::build_csr), at every batch size on hosts with the
  /// AVX2 kernel. Off by default so direct sessions over such stores stay
  /// bit-exact with an eagerly decoded network. Layers without a dense
  /// matrix take the kernel whether or not the session opted in.
  void enable_sparse_forward(bool on) { sparse_enabled_ = on; }
  bool sparse_forward_enabled() const { return sparse_enabled_; }

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Serves one batched forward pass ([batch, features] in, logits out);
  /// throws std::invalid_argument for any other input shape.
  ///
  /// Each layer runs in the form it is served in. A dense matrix runs as
  /// nn::Dense::forward and nn::ReLU::forward compute it (dense GEMM, bias,
  /// ReLU), so a default store's results are bit-exact with an eagerly
  /// decoded network. A layer without one — the CSR-only kSparseCsr and
  /// kCodebookCsr forms of a native-form store — runs through
  /// serve::sparse_fc_forward, touching only surviving weights, at every
  /// batch size; so do dense layers with a CSR copy once the session opted
  /// in (enable_sparse_forward). Consecutive kernel layers share one kernel
  /// call, so a chain may mix forms. The two paths agree to fp tolerance,
  /// not bit-exactly (different summation order).
  tensor::Tensor infer(const tensor::Tensor& batch);

  /// Drops this session's layer pins; the next request re-fetches from the
  /// store — e.g. after evict_all() in tests, or when a worker goes idle.
  void release_layers();

  SessionStats stats() const { return stats_; }

 private:
  const ServedLayer& pin(std::size_t i);

  ModelStore& store_;
  // One pin per container entry, in chain order; null until first reached.
  // A pin keeps the decoded layer alive even if the store evicts it.
  std::vector<std::shared_ptr<const ServedLayer>> chain_;
  bool sparse_enabled_ = false;
  SessionStats stats_;
};

/// Checks that a container's fc stack is servable as one chain: at least one
/// layer, and rows_i == cols_{i+1} for consecutive layers. Throws
/// std::invalid_argument otherwise. The session constructor,
/// make_fc_network and server::ModelRepository all validate through it.
void check_fc_chain(const core::ContainerReader& reader);

/// Builds the sequential Dense+ReLU network implied by a container's
/// fc-stack: layer i becomes Dense(cols_i, rows_i) under the container
/// name, with ReLU between consecutive layers (check_fc_chain first). The
/// result is a freshly initialized training network — serving never needs
/// one; it is for callers that train or evaluate the architecture.
nn::Network make_fc_network(const core::ContainerReader& reader,
                            const std::string& name = "served-fc");

}  // namespace deepsz::serve
