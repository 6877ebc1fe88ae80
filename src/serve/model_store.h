// Random-access model serving: a byte-budgeted, thread-safe layer-decode
// cache over a compressed container.
//
// The paper's deployment story (Section 5.4, Figure 7b) decodes the whole
// container before the first inference; at serving scale that front-loads
// every layer's codec cost onto the first request and re-pays it whenever a
// model is reloaded. ModelStore instead decodes layers on first use through
// core::ContainerReader's seekable index and memoizes the inference-ready
// form (dense, CSR or codebook-CSR) behind an LRU cache with a byte budget:
//
//   - get() on a cached layer is a map lookup (zero codec work);
//   - concurrent get() of distinct layers decode in parallel (the lock is
//     not held during codec work);
//   - concurrent get() of the same layer coalesces: one caller decodes,
//     the rest wait for its result;
//   - entries are shared_ptr, so eviction never invalidates a layer an
//     inference thread is still reading.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "serve/cache_budget.h"
#include "serve/serving_form.h"
#include "util/mutex.h"

namespace deepsz::serve {

class ModelStore;

struct ModelStoreOptions {
  /// Cache budget over ServedLayer::bytes(). Layers larger than the whole
  /// budget are still served (decoded, returned, dropped immediately).
  std::size_t cache_budget_bytes = 256ull << 20;
  /// Keep a CSR copy (ServedLayer::csr_*) next to each layer's dense matrix,
  /// the input of serve::sparse_fc_forward for a session opted into the
  /// kernel. Off by default, and ignored by a native_form store (which picks
  /// one form per layer). Only perfbench's traced probe still sets it: it
  /// runs the dense GEMM on the same layers it hands the kernel.
  bool build_csr = false;
  /// Decode each layer into its native serving form (serve/serving_form.h)
  /// instead of always inflating to dense f32: a "dc"-coded layer becomes a
  /// kCodebookCsr entry (CSR structure over u8/u16 codebook ids plus the f32
  /// codebook, ~4-5 bits/weight resident instead of 32), a pruned layer at
  /// or below kSparseCsrMaxDensity becomes a CSR-only kSparseCsr entry built
  /// straight from its two arrays (on hosts with the AVX2 kernel), and any
  /// other layer is dense-only kDenseF32. Off by default; turned on by
  /// ModelRepository, whose sessions dispatch on ServedLayer::form.
  bool native_form = false;
  /// Optional process-wide budget shared with other stores (one per serving
  /// daemon; see serve/cache_budget.h). The per-store budget above still
  /// applies; the shared budget adds cross-model LRU pressure on top. The
  /// store attaches on construction and detaches (uncharging its resident
  /// bytes) on destruction.
  std::shared_ptr<SharedCacheBudget> shared_budget;
  /// Model label for trace spans and deepsz_stage_ms{stage,model} — set by
  /// ModelRepository to the serving name. Empty disables the model label
  /// ("store" is used) but never the spans themselves.
  std::string trace_label;
  /// Base store for a delta container (DSZC v4): required when the container
  /// declares a base, rejected (construction throws) when missing. The store
  /// attaches the base's reader via ContainerReader::set_base — which
  /// verifies the base container's CRC — and holds the shared_ptr for its
  /// lifetime, so unloading the base elsewhere never invalidates this store.
  /// kSame layers forward get()/peek() to the base store (shared residency,
  /// no double-charge); kDelta layers reconstruct warm against the base's
  /// resident layer (dense or CSR) when possible, else cold through the full
  /// chain.
  std::shared_ptr<ModelStore> base_store;
};

/// One decoded, inference-ready fc-layer. Immutable after publication;
/// handed out as shared_ptr<const> so readers outlive eviction. `form` tags
/// which of the three serving forms (serve/serving_form.h) the layer holds:
///
///   kDenseF32    — `dense` populated; CSR arrays empty.
///   kSparseCsr   — a CSR view (csr_rowptr/csr_col/csr_val) of the pruned
///                  weights (~85% exact zeros after DeepSZ pruning), which
///                  serve::sparse_fc_forward runs touching only the
///                  surviving weights. `dense` is empty in a native_form
///                  store; only ModelStoreOptions::build_csr keeps it too.
///   kCodebookCsr — compressed-domain: the same CSR structure, but the
///                  per-nonzero payload is a codebook id (csr_id8 when the
///                  codebook has <= 256 entries, csr_id16 otherwise) and
///                  `codebook` holds the k f32 centroids. `dense` and
///                  csr_val stay empty — nothing is ever inflated to 32
///                  bits/weight.
struct ServedLayer {
  ServingForm form = ServingForm::kDenseF32;
  std::string name;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<float> dense;  // row-major [rows x cols]; empty when CSR-only
  std::vector<float> bias;   // empty when the container stores none
  // CSR structure (both CSR forms): row j's nonzeros occupy positions
  // [csr_rowptr[j], csr_rowptr[j+1]) of csr_col and of the payload array —
  // csr_val for kSparseCsr, csr_id8/csr_id16 for kCodebookCsr.
  std::vector<std::uint32_t> csr_rowptr;  // rows + 1
  std::vector<std::uint32_t> csr_col;
  std::vector<float> csr_val;
  // Codebook form payload: exactly one of csr_id8/csr_id16 is populated,
  // chosen by codebook size so ids cost 1 byte at <= 8 quantization bits.
  std::vector<float> codebook;
  std::vector<std::uint8_t> csr_id8;
  std::vector<std::uint16_t> csr_id16;

  bool has_csr() const {
    return csr_rowptr.size() == static_cast<std::size_t>(rows) + 1;
  }
  /// The nonzero weight at CSR position nz, whichever payload encodes it.
  float csr_weight(std::size_t nz) const {
    if (form == ServingForm::kCodebookCsr) {
      return codebook[csr_id8.empty() ? csr_id16[nz] : csr_id8[nz]];
    }
    return csr_val[nz];
  }
  core::DecodeTiming timing;  // codec cost paid to produce this entry

  std::size_t nnz() const { return csr_col.size(); }
  double density() const {
    const auto total = static_cast<double>(rows) * static_cast<double>(cols);
    return total > 0.0 ? static_cast<double>(nnz()) / total : 0.0;
  }

  /// Heap bytes the entry holds: vector capacities, not sizes, since the
  /// CSR arrays are reserved for the decoded entry count up front.
  std::size_t bytes() const {
    return dense.capacity() * sizeof(float) + bias.capacity() * sizeof(float) +
           csr_rowptr.capacity() * sizeof(std::uint32_t) +
           csr_col.capacity() * sizeof(std::uint32_t) +
           csr_val.capacity() * sizeof(float) +
           codebook.capacity() * sizeof(float) + csr_id8.capacity() +
           csr_id16.capacity() * sizeof(std::uint16_t) + name.size();
  }
};

/// Builds out's csr_rowptr/csr_col/csr_val straight from a decoded
/// two-array layer, in one walk over its position deltas. An entry is kept
/// iff its value != 0.0f, so a filler whose error-bounded reconstruction is
/// nonzero stays in and a -0.0f entry drops out: exactly the entries a
/// row-major scan of layer.to_dense() keeps, in the same order. Throws
/// std::runtime_error on a data/index length mismatch, a zero position
/// delta, or an index past rows x cols.
void fill_csr(const sparse::PrunedLayer& layer, ServedLayer& out);

/// Cache counters. hits/misses/coalesced count get() outcomes; decode_ms is
/// the cumulative codec time paid by misses (zero in a warm steady state),
/// split into its phases below so the cold-miss cost of the chunked
/// error-bounded decode (SZ stream v2 fans one layer's chunks across
/// ThreadPool::global()) is observable per store.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;   // waited on another caller's decode
  std::uint64_t evictions = 0;
  std::size_t cached_bytes = 0;
  std::size_t cached_layers = 0;
  // cached_bytes split by ServedLayer::form, indexed by ServingForm — shows
  // how much of the residency is compressed-domain (kCodebookCsr) versus
  // inflated f32. Sums to cached_bytes.
  std::array<std::size_t, kNumServingForms> form_bytes = {};
  double decode_ms = 0.0;
  // Phase breakdown of decode_ms (wall time per miss, summed): the lossless
  // index decode, the error-bounded (block-parallel) data decode, and the
  // dense/CSR reconstruction.
  double lossless_ms = 0.0;
  double eb_decode_ms = 0.0;
  double reconstruct_ms = 0.0;

  std::size_t form_resident(ServingForm f) const {
    return form_bytes[static_cast<std::size_t>(f)];
  }
  std::uint64_t lookups() const { return hits + misses + coalesced; }
  /// Fraction of lookups served without this caller running a codec.
  double hit_rate() const {
    const auto n = lookups();
    return n ? static_cast<double>(hits + coalesced) / n : 0.0;
  }
};

class ModelStore {
 public:
  /// Takes ownership of the container bytes. Throws std::runtime_error on a
  /// corrupt container (directory parsing happens here; stream payloads are
  /// only touched when a layer is first requested).
  explicit ModelStore(std::vector<std::uint8_t> container,
                      ModelStoreOptions options = {});
  ~ModelStore();

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  const core::ContainerReader& reader() const { return reader_; }
  const ModelStoreOptions& options() const { return options_; }

  /// Returns the decoded layer, decoding on miss. Thread-safe; duplicate
  /// in-flight decodes of one layer coalesce onto a single codec run.
  /// Throws std::out_of_range for an unknown name and std::runtime_error
  /// for a corrupt layer (every waiter observes the same failure).
  std::shared_ptr<const ServedLayer> get(const std::string& name);

  /// Cache probe without decoding; nullptr on miss. Does not touch LRU
  /// order or the stats counters.
  std::shared_ptr<const ServedLayer> peek(const std::string& name) const;

  /// Decodes every layer into the cache, in parallel on ThreadPool::global()
  /// when `parallel` (distinct layers decode concurrently; the budget still
  /// applies, so a model larger than the budget warms only its LRU tail).
  void warmup(bool parallel = true);

  /// Drops every cached entry (outstanding shared_ptrs stay valid).
  void evict_all();

  CacheStats stats() const;
  /// Zeroes the counters (cached_bytes/cached_layers are recomputed).
  void reset_stats();

  /// Recency stamp of this store's LRU tail, or nullopt when the cache is
  /// empty. Meaningful only with a shared budget (stamps come from its
  /// clock); SharedCacheBudget::rebalance compares tails across stores.
  std::optional<std::uint64_t> oldest_stamp() const;

  /// Evicts the single least-recently-used entry; returns the bytes freed
  /// (0 when the cache was empty). Outstanding shared_ptrs stay valid.
  std::size_t evict_lru_one();

 private:
  struct InFlight;

  std::shared_ptr<const ServedLayer> decode_now(std::size_t entry_index)
      DEEPSZ_EXCLUDES(mu_);
  std::shared_ptr<const ServedLayer> decode_codebook_now(
      std::size_t entry_index) DEEPSZ_EXCLUDES(mu_);
  std::shared_ptr<const ServedLayer> decode_delta_now(std::size_t entry_index)
      DEEPSZ_EXCLUDES(mu_);
  std::shared_ptr<const ServedLayer> make_served(
      std::size_t entry_index, const sparse::PrunedLayer& sparse_layer,
      core::DecodeTiming timing) DEEPSZ_EXCLUDES(mu_);
  void insert_and_evict_locked(const std::string& name,
                               std::shared_ptr<const ServedLayer> layer)
      DEEPSZ_REQUIRES(mu_);
  std::size_t evict_tail_locked() DEEPSZ_REQUIRES(mu_);

  const std::vector<std::uint8_t> container_;
  const ModelStoreOptions options_;
  core::ContainerReader reader_;  // views container_; declared after it

  mutable util::Mutex mu_;
  struct CacheEntry {
    std::shared_ptr<const ServedLayer> layer;
    std::list<std::string>::iterator lru_it;
    std::uint64_t stamp = 0;  // global recency clock (shared budget only)
  };
  std::map<std::string, CacheEntry> cache_ DEEPSZ_GUARDED_BY(mu_);
  // front = most recently used
  std::list<std::string> lru_ DEEPSZ_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<InFlight>> in_flight_
      DEEPSZ_GUARDED_BY(mu_);
  CacheStats stats_ DEEPSZ_GUARDED_BY(mu_);
};

}  // namespace deepsz::serve
