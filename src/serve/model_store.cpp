#include "serve/model_store.h"

#include <exception>
#include <stdexcept>

#include "baselines/codec_adapters.h"
#include "core/container_wire.h"
#include "obs/trace.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace deepsz::serve {

namespace {

/// One "decode" span (tagged with form + layer) plus sequential child spans
/// synthesized from the codec's own DecodeTiming — the Fig. 7-style
/// lossless / eb_decode / reconstruct breakdown, without re-timing anything.
/// Each phase also feeds the (stage, model) histograms behind
/// deepsz_stage_ms.
void trace_decode(const std::string& model, const std::string& layer_name,
                  const ServedLayer& layer, std::uint64_t t0) {
  const std::uint64_t t1 = obs::now_ns();
  const char* form = serving_form_name(layer.form);
  obs::Tracer::emit("decode", "serve", layer_name, form, t0,
                    t1 > t0 ? t1 - t0 : 0);
  std::uint64_t cursor = t0;
  const auto child = [&](const char* phase_name, double ms) {
    const auto dur = static_cast<std::uint64_t>(ms * 1e6);
    obs::Tracer::emit(phase_name, "serve", layer_name, form, cursor, dur);
    cursor += dur;
  };
  child("lossless", layer.timing.lossless_ms);
  child("eb_decode", layer.timing.sz_ms);
  child("reconstruct", layer.timing.reconstruct_ms);
  obs::Tracer::record_stage("decode", model, layer.timing.total_ms());
  obs::Tracer::record_stage("decode_lossless", model,
                            layer.timing.lossless_ms);
  obs::Tracer::record_stage("decode_eb", model, layer.timing.sz_ms);
  obs::Tracer::record_stage("decode_reconstruct", model,
                            layer.timing.reconstruct_ms);
}

/// Walks a layer's position deltas (the paper's index array) and calls
/// fn(i, row, col) for stored entry i, in order. from_dense emits deltas
/// >= 1, so positions strictly increase and a zero delta can only come from
/// corruption; it throws, as does a position past rows x cols. The row and
/// column advance incrementally (a delta is at most 255), never by division.
template <class Fn>
void walk_positions(std::span<const std::uint8_t> deltas, std::int64_t rows,
                    std::int64_t cols, const std::string& name, Fn&& fn) {
  if (!deltas.empty() && (rows <= 0 || cols <= 0)) {
    throw std::runtime_error("ModelStore: index overruns matrix in " + name);
  }
  std::int64_t row = 0;
  std::int64_t col = -1;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i] == 0) {
      throw std::runtime_error("ModelStore: zero position delta in " + name);
    }
    col += deltas[i];
    while (col >= cols) {
      col -= cols;
      ++row;
    }
    if (row >= rows) {
      throw std::runtime_error("ModelStore: index overruns matrix in " +
                               name);
    }
    fn(i, row, col);
  }
}

/// A layer without a dense matrix feeds its bias straight into the forward
/// kernel, so a bias of the wrong length is unservable: hard error at decode
/// (a dense decode still succeeds; load_compressed_model can keep a
/// network's own bias instead).
void check_kernel_bias(const ServedLayer& served) {
  if (!served.bias.empty() &&
      served.bias.size() != static_cast<std::size_t>(served.rows)) {
    throw std::runtime_error(
        "ModelStore: bias length " + std::to_string(served.bias.size()) +
        " != rows " + std::to_string(served.rows) + " for " +
        serving_form_name(served.form) + " layer " + served.name);
  }
}

}  // namespace

void fill_csr(const sparse::PrunedLayer& layer, ServedLayer& out) {
  if (layer.data.size() != layer.index.size()) {
    throw std::runtime_error("ModelStore: data/index length mismatch in " +
                             layer.name);
  }
  out.csr_rowptr.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                            layer.rows, 0)) + 1,
                        0);
  out.csr_col.clear();
  out.csr_val.clear();
  // The stored entry count bounds the nonzero count.
  out.csr_col.reserve(layer.data.size());
  out.csr_val.reserve(layer.data.size());
  walk_positions(layer.index, layer.rows, layer.cols, layer.name,
                 [&](std::size_t i, std::int64_t row, std::int64_t col) {
                   const float v = layer.data[i];
                   if (v == 0.0f) return;  // filler, or a pruned-zero value
                   out.csr_col.push_back(static_cast<std::uint32_t>(col));
                   out.csr_val.push_back(v);
                   ++out.csr_rowptr[static_cast<std::size_t>(row) + 1];
                 });
  for (std::size_t r = 1; r < out.csr_rowptr.size(); ++r) {
    out.csr_rowptr[r] += out.csr_rowptr[r - 1];
  }
}

/// Rendezvous for callers that requested a layer already being decoded.
struct ModelStore::InFlight {
  util::Mutex m;
  util::CondVar cv;
  bool done DEEPSZ_GUARDED_BY(m) = false;
  std::shared_ptr<const ServedLayer> result DEEPSZ_GUARDED_BY(m);
  std::exception_ptr error DEEPSZ_GUARDED_BY(m);
};

ModelStore::ModelStore(std::vector<std::uint8_t> container,
                       ModelStoreOptions options)
    : container_(std::move(container)),
      options_(std::move(options)),
      reader_(container_) {
  if (reader_.is_delta()) {
    if (!options_.base_store) {
      throw std::runtime_error(
          "ModelStore: delta container requires base \"" + reader_.base_id() +
          "\" but no base store was provided");
    }
    // Aliasing shared_ptr: ownership of the base ModelStore (which owns the
    // base container bytes) travels with the reader pointer, so the base
    // chain stays alive for this store's lifetime even if the base model is
    // unloaded elsewhere mid-swap. set_base verifies the base's CRC.
    reader_.set_base(std::shared_ptr<const core::ContainerReader>(
        options_.base_store, &options_.base_store->reader()));
  } else if (options_.base_store) {
    throw std::runtime_error(
        "ModelStore: base store supplied for a non-delta container");
  }
  if (options_.shared_budget) options_.shared_budget->attach(this);
}

ModelStore::~ModelStore() {
  if (!options_.shared_budget) return;
  // Detach before uncharging: after detach() returns no rebalance() can be
  // holding this store as a victim, so the uncharge cannot double-count
  // against a concurrent eviction.
  options_.shared_budget->detach(this);
  util::MutexLock lock(mu_);
  options_.shared_budget->uncharge(stats_.cached_bytes);
}

std::shared_ptr<const ServedLayer> ModelStore::get(const std::string& name) {
  // Unknown names throw std::out_of_range before any cache bookkeeping.
  const std::size_t entry_index = reader_.index_of(name);

  // A kSame layer is bit-identical to the base's: forward to the base store
  // so the decoded entry is shared across the whole delta chain (one
  // residency, one budget charge). Counted as a hit here — this store ran
  // no codec; any decode cost lands in the base store's stats.
  if (reader_.entry(entry_index).kind == core::LayerKind::kSame) {
    if (!options_.base_store) {
      throw std::runtime_error("ModelStore: same-layer " + name +
                               " has no base store");
    }
    {
      util::MutexLock lock(mu_);
      ++stats_.hits;
    }
    return options_.base_store->get(name);
  }

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    util::MutexLock lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (options_.shared_budget) {
        it->second.stamp = options_.shared_budget->next_stamp();
      }
      return it->second.layer;
    }
    auto fit = in_flight_.find(name);
    if (fit != in_flight_.end()) {
      ++stats_.coalesced;
      flight = fit->second;
    } else {
      ++stats_.misses;
      flight = std::make_shared<InFlight>();
      in_flight_[name] = flight;
      owner = true;
    }
  }

  if (!owner) {
    util::MutexLock lock(flight->m);
    while (!flight->done) flight->cv.wait(flight->m);
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->result;
  }

  // Decode outside mu_ so distinct layers decode concurrently.
  std::shared_ptr<const ServedLayer> layer;
  std::exception_ptr error;
  const bool tracing = obs::Tracer::enabled();
  const std::uint64_t trace_t0 = tracing ? obs::now_ns() : 0;
  try {
    layer = decode_now(entry_index);
  } catch (...) {
    error = std::current_exception();
  }
  if (tracing && layer) {
    trace_decode(options_.trace_label.empty() ? "store" : options_.trace_label,
                 name, *layer, trace_t0);
  }

  {
    util::MutexLock lock(mu_);
    in_flight_.erase(name);
    if (layer) {
      stats_.decode_ms += layer->timing.total_ms();
      stats_.lossless_ms += layer->timing.lossless_ms;
      stats_.eb_decode_ms += layer->timing.sz_ms;
      stats_.reconstruct_ms += layer->timing.reconstruct_ms;
      insert_and_evict_locked(name, layer);
    }
  }
  {
    util::MutexLock lock(flight->m);
    flight->result = layer;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();

  if (error) std::rethrow_exception(error);
  // Cross-model pressure runs outside mu_ (rebalance locks the budget first,
  // then victim stores — possibly this one).
  if (options_.shared_budget) options_.shared_budget->rebalance();
  return layer;
}

std::shared_ptr<const ServedLayer> ModelStore::decode_now(
    std::size_t entry_index) {
  const core::ContainerEntry& e = reader_.entry(entry_index);
  if (e.kind == core::LayerKind::kDelta) return decode_delta_now(entry_index);
  // Codebook serving applies to full records only: a delta record's data
  // stream holds the residual, not a dc payload.
  if (options_.native_form && e.kind == core::LayerKind::kFull &&
      native_form_for_codec_spec(e.data.codec) == ServingForm::kCodebookCsr) {
    return decode_codebook_now(entry_index);
  }
  core::DecodeTiming timing;
  auto sparse_layer = reader_.decode_layer(entry_index, &timing);
  return make_served(entry_index, sparse_layer, timing);
}

std::shared_ptr<const ServedLayer> ModelStore::decode_delta_now(
    std::size_t entry_index) {
  const core::ContainerEntry& e = reader_.entry(entry_index);
  core::DecodeTiming timing;

  // Warm hot-swap path: when the base layer is already resident, rebuild the
  // base's two-array representation from it and apply the delta to that,
  // skipping the base's error-bounded decode entirely. Walking the base's
  // (cheap, lossless) index deltas gathers dense[pos] from a dense matrix,
  // or merges against the CSR entries, which hold exactly the positions
  // whose value != 0.0f: a position the CSR omits reads as 0.0f. Only a
  // -0.0f base entry can come back different, and the record's base CRC pin
  // catches it; the swap then takes the cold decode below instead. Walk
  // kSame references down the chain to the full record that owns the index
  // stream; a kDelta base or a non-resident base also decodes cold.
  if (options_.base_store) {
    auto resident = options_.base_store->peek(e.name);
    const core::ContainerReader* br = &options_.base_store->reader();
    while (br->contains(e.name) &&
           br->entry(e.name).kind == core::LayerKind::kSame && br->base()) {
      br = br->base();
    }
    if (resident && (resident->has_csr() || !resident->dense.empty()) &&
        br->contains(e.name) &&
        br->entry(e.name).kind == core::LayerKind::kFull) {
      const ServedLayer& base = *resident;
      auto deltas =
          br->decode_index_stream(br->index_of(e.name), &timing.lossless_ms);
      util::WallTimer rebuild_timer;
      sparse::PrunedLayer base_layer;
      base_layer.name = e.name;
      base_layer.rows = base.rows;
      base_layer.cols = base.cols;
      base_layer.data.reserve(deltas.size());
      std::size_t nz = 0;
      bool omitted = false;  // some position read as 0.0f off the CSR
      walk_positions(deltas, base.rows, base.cols, e.name,
                     [&](std::size_t, std::int64_t row, std::int64_t col) {
                       float v = 0.0f;
                       if (!base.dense.empty()) {
                         v = base.dense[static_cast<std::size_t>(
                             row * base.cols + col)];
                       } else if (nz < base.csr_rowptr[static_cast<
                                           std::size_t>(row) + 1] &&
                                  base.csr_col[nz] == col) {
                         v = base.csr_weight(nz++);
                       } else {
                         omitted = true;
                       }
                       base_layer.data.push_back(v);
                     });
      // apply_delta verifies the pin as well, but throws on a miss; only an
      // omitted position can miss it, so only then is it checked here.
      if (!omitted || util::crc32(core::wire::float_bytes(base_layer.data)) ==
                          e.base_data_crc) {
        timing.reconstruct_ms += rebuild_timer.millis();
        base_layer.index = std::move(deltas);
        core::DecodeTiming apply_timing;
        auto sparse_layer =
            reader_.apply_delta(entry_index, base_layer, &apply_timing);
        timing.lossless_ms += apply_timing.lossless_ms;
        timing.sz_ms += apply_timing.sz_ms;
        timing.reconstruct_ms += apply_timing.reconstruct_ms;
        return make_served(entry_index, sparse_layer, timing);
      }
    }
  }

  auto sparse_layer = reader_.decode_layer(entry_index, &timing);
  return make_served(entry_index, sparse_layer, timing);
}

std::shared_ptr<const ServedLayer> ModelStore::make_served(
    std::size_t entry_index, const sparse::PrunedLayer& sparse_layer,
    core::DecodeTiming timing) {
  auto served = std::make_shared<ServedLayer>();
  util::WallTimer timer;
  served->name = sparse_layer.name;
  served->rows = sparse_layer.rows;
  served->cols = sparse_layer.cols;
  served->bias = reader_.decode_bias(entry_index);
  // A native-form store serves a pruned layer as CSR only, built straight
  // from the two arrays; the dense matrix is never materialized. Layers
  // denser than the crossover (unpruned checkpoints) stay dense-only, and
  // so does every layer on a host without the AVX2 kernel.
  const double total = static_cast<double>(sparse_layer.rows) *
                       static_cast<double>(sparse_layer.cols);
  const bool csr_only =
      options_.native_form && util::have_avx2_fma() && total > 0.0 &&
      static_cast<double>(sparse_layer.data.size()) / total <=
          kSparseCsrMaxDensity;
  if (!csr_only) served->dense = sparse_layer.to_dense();
  if (csr_only || (options_.build_csr && !options_.native_form)) {
    fill_csr(sparse_layer, *served);
  }
  served->form = served->has_csr() ? ServingForm::kSparseCsr
                                   : ServingForm::kDenseF32;
  if (csr_only) check_kernel_bias(*served);
  timing.reconstruct_ms += timer.millis();
  served->timing = timing;
  return served;
}

std::shared_ptr<const ServedLayer> ModelStore::decode_codebook_now(
    std::size_t entry_index) {
  const core::ContainerEntry& e = reader_.entry(entry_index);
  auto served = std::make_shared<ServedLayer>();
  core::DecodeTiming timing;

  // The index stream decodes to the paper's position deltas; the data stream
  // is a "dc" payload whose Huffman coding we undo ONCE here — the codebook
  // is never applied, so the layer stays at id width instead of f32.
  auto deltas = reader_.decode_index_stream(entry_index, &timing.lossless_ms);
  util::WallTimer eb_timer;
  auto q =
      baselines::dc_decode_quantized(reader_.checked_data_stream(entry_index));
  timing.sz_ms = eb_timer.millis();
  if (q.ids.size() != deltas.size()) {
    throw std::runtime_error(
        "ModelStore: dc data/index entry count mismatch in " + e.name);
  }

  util::WallTimer timer;
  served->form = ServingForm::kCodebookCsr;
  served->name = e.name;
  served->rows = e.rows;
  served->cols = e.cols;
  served->codebook = std::move(q.codebook);
  served->bias = reader_.decode_bias(entry_index);
  check_kernel_bias(*served);

  // Keep an entry iff its centroid is nonzero: the same set fill_csr keeps
  // from the f32 decode, so the codebook form is bit-identical in content
  // to the kSparseCsr form of the same layer.
  const bool narrow = served->codebook.size() <= 256;
  served->csr_rowptr.assign(static_cast<std::size_t>(e.rows) + 1, 0);
  served->csr_col.reserve(deltas.size());
  if (narrow) {
    served->csr_id8.reserve(deltas.size());
  } else {
    served->csr_id16.reserve(deltas.size());
  }
  walk_positions(deltas, e.rows, e.cols, e.name,
                 [&](std::size_t i, std::int64_t row, std::int64_t col) {
                   const std::uint32_t id = q.ids[i];
                   // filler or zero centroid
                   if (served->codebook[id] == 0.0f) return;
                   served->csr_col.push_back(static_cast<std::uint32_t>(col));
                   if (narrow) {
                     served->csr_id8.push_back(static_cast<std::uint8_t>(id));
                   } else {
                     served->csr_id16.push_back(
                         static_cast<std::uint16_t>(id));
                   }
                   ++served->csr_rowptr[static_cast<std::size_t>(row) + 1];
                 });
  for (std::size_t r = 1; r < served->csr_rowptr.size(); ++r) {
    served->csr_rowptr[r] += served->csr_rowptr[r - 1];
  }
  timing.reconstruct_ms = timer.millis();
  served->timing = timing;
  return served;
}

void ModelStore::insert_and_evict_locked(
    const std::string& name, std::shared_ptr<const ServedLayer> layer) {
  const std::size_t layer_bytes = layer->bytes();
  const auto form_ix = static_cast<std::size_t>(layer->form);
  lru_.push_front(name);
  const std::uint64_t stamp =
      options_.shared_budget ? options_.shared_budget->next_stamp() : 0;
  cache_[name] = CacheEntry{std::move(layer), lru_.begin(), stamp};
  stats_.cached_bytes += layer_bytes;
  stats_.form_bytes[form_ix] += layer_bytes;
  stats_.cached_layers = cache_.size();
  if (options_.shared_budget) options_.shared_budget->charge(layer_bytes);

  // Evict from the LRU tail until the budget holds. A single layer larger
  // than the whole budget evicts itself: it was still served, just never
  // retained.
  while (stats_.cached_bytes > options_.cache_budget_bytes && !lru_.empty()) {
    evict_tail_locked();
  }
  stats_.cached_layers = cache_.size();
}

std::size_t ModelStore::evict_tail_locked() {
  // Requires a non-empty LRU.
  const std::string victim = lru_.back();
  auto it = cache_.find(victim);
  const std::size_t bytes = it->second.layer->bytes();
  stats_.cached_bytes -= bytes;
  stats_.form_bytes[static_cast<std::size_t>(it->second.layer->form)] -= bytes;
  cache_.erase(it);
  lru_.pop_back();
  ++stats_.evictions;
  stats_.cached_layers = cache_.size();
  if (options_.shared_budget) options_.shared_budget->uncharge(bytes);
  return bytes;
}

std::optional<std::uint64_t> ModelStore::oldest_stamp() const {
  util::MutexLock lock(mu_);
  if (lru_.empty()) return std::nullopt;
  return cache_.at(lru_.back()).stamp;
}

std::size_t ModelStore::evict_lru_one() {
  util::MutexLock lock(mu_);
  if (lru_.empty()) return 0;
  return evict_tail_locked();
}

std::shared_ptr<const ServedLayer> ModelStore::peek(
    const std::string& name) const {
  // kSame layers live in the base store's cache, not this one.
  if (options_.base_store && reader_.contains(name) &&
      reader_.entry(name).kind == core::LayerKind::kSame) {
    return options_.base_store->peek(name);
  }
  util::MutexLock lock(mu_);
  auto it = cache_.find(name);
  return it != cache_.end() ? it->second.layer : nullptr;
}

void ModelStore::warmup(bool parallel) {
  const std::size_t n = reader_.num_layers();
  const auto fetch = [this](std::size_t i) { get(reader_.entry(i).name); };
  if (!parallel) {
    for (std::size_t i = 0; i < n; ++i) fetch(i);
    return;
  }
  util::parallel_for(0, n, fetch);
}

void ModelStore::evict_all() {
  util::MutexLock lock(mu_);
  stats_.evictions += cache_.size();
  if (options_.shared_budget) {
    options_.shared_budget->uncharge(stats_.cached_bytes);
  }
  cache_.clear();
  lru_.clear();
  stats_.cached_bytes = 0;
  stats_.cached_layers = 0;
  stats_.form_bytes = {};
}

CacheStats ModelStore::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

void ModelStore::reset_stats() {
  util::MutexLock lock(mu_);
  const std::size_t bytes = stats_.cached_bytes;
  const std::size_t layers = stats_.cached_layers;
  const auto form_bytes = stats_.form_bytes;
  stats_ = CacheStats{};
  stats_.cached_bytes = bytes;
  stats_.cached_layers = layers;
  stats_.form_bytes = form_bytes;
}

}  // namespace deepsz::serve
