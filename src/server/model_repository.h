// Multi-model repository: N named, versioned containers behind one shared
// decode-cache budget, with atomic hot-swap.
//
// Each loaded model is an immutable ServedModel snapshot (container bytes +
// ModelStore + validated fc topology). Request paths take a shared_ptr to
// the current snapshot, so load/reload/unload are a pointer swap: requests
// already in flight finish against the version they started on, and the old
// version's decoded layers are evicted (its ModelStore destructor uncharges
// the shared budget) once the last in-flight reference drains. All stores
// attach to one SharedCacheBudget, so the decoded footprint of the whole
// repository — however many models are loaded — stays under one byte budget
// with cross-model LRU pressure (serve/cache_budget.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "serve/cache_budget.h"
#include "serve/model_store.h"
#include "util/mutex.h"

namespace deepsz::server {

/// One immutable loaded model version.
struct ServedModel {
  std::string name;
  std::uint64_t version = 0;     // repository-wide, monotonic
  std::string source_path;       // empty when loaded from memory
  std::shared_ptr<serve::ModelStore> store;
  std::size_t container_bytes = 0;  // compressed container size on disk
  /// CRC32 of the whole container file — the identity delta containers pin
  /// their base against (ContainerReader::base_crc), used for auto-detect.
  std::uint32_t container_crc = 0;
  /// For a delta load: how the base was resolved — the served-model name
  /// (explicit `base=` hint or CRC auto-detect) or the base_id path the cold
  /// file-chain fallback read. Empty for a full container.
  std::string base_ref;
  /// Bytes a rollout actually shipped for this load: the container itself
  /// plus any base-chain files the cold fallback had to read. A warm delta
  /// swap against an already-resident base ships only the delta.
  std::size_t shipped_bytes = 0;
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;
};

class ModelRepository {
 public:
  /// `cache_budget_bytes` bounds the decoded bytes resident across ALL
  /// models. `store_options` seeds every ModelStore (its shared_budget and
  /// cache_budget_bytes fields are overridden: the shared budget is the
  /// repository's, and per-store budgets are left unbounded so eviction
  /// pressure is purely global).
  explicit ModelRepository(std::size_t cache_budget_bytes = 256ull << 20,
                           serve::ModelStoreOptions store_options = {});

  ModelRepository(const ModelRepository&) = delete;
  ModelRepository& operator=(const ModelRepository&) = delete;

  /// Loads (or hot-swaps) `name` from container bytes. Validation — corrupt
  /// container, non-chaining fc stack — happens before the swap, so a bad
  /// reload leaves the previous version serving. Returns the new snapshot.
  /// Throws std::runtime_error / std::invalid_argument on a bad container.
  ///
  /// A DSZC v4 delta container resolves its base in order:
  ///   1. `base_hint` — the named served model (std::invalid_argument when
  ///      it is not loaded; ModelStore rejects a CRC mismatch);
  ///   2. auto-detect — any loaded model whose container_crc matches the
  ///      delta's base_crc, so `:load?base=` is optional once the base is
  ///      resident;
  ///   3. cold fallback — the header's base_id resolved as a file path
  ///      (as-is, then relative to the delta's own source directory),
  ///      chain-walked with a cycle check and ContainerReader's depth bound.
  /// A warm swap (1 or 2) reconstructs delta layers against the base's
  /// already-resident decoded form and ships only the delta bytes.
  std::shared_ptr<const ServedModel> load(
      const std::string& name, std::vector<std::uint8_t> container,
      std::string source_path = "", const std::string& base_hint = {});

  /// load() from a file, remembering the path for reload().
  std::shared_ptr<const ServedModel> load_file(
      const std::string& name, const std::string& path,
      const std::string& base_hint = {});

  /// Re-reads the model's source file and hot-swaps. Throws
  /// std::out_of_range for an unknown name and std::logic_error for a model
  /// loaded from memory (no path to re-read).
  std::shared_ptr<const ServedModel> reload(const std::string& name);

  /// Removes `name`; returns false when absent. In-flight holders of the
  /// snapshot keep serving until they drop it.
  bool unload(const std::string& name);

  /// Current snapshot, or nullptr when not loaded.
  std::shared_ptr<const ServedModel> get(const std::string& name) const;

  /// All current snapshots, name-sorted.
  std::vector<std::shared_ptr<const ServedModel>> list() const;

  std::size_t size() const;
  const std::shared_ptr<serve::SharedCacheBudget>& budget() const {
    return budget_;
  }

  /// Cumulative ServedModel::shipped_bytes across every successful load —
  /// the wire cost of the fleet's rollout history, exported as the
  /// deepsz_swap_bytes_shipped metric.
  std::uint64_t bytes_shipped() const;

 private:
  std::shared_ptr<ServedModel> build(const std::string& name,
                                     std::vector<std::uint8_t> container,
                                     std::string source_path,
                                     const std::string& base_hint) const;
  std::shared_ptr<serve::ModelStore> resolve_base_store(
      const std::string& name, const core::ContainerReader& probe,
      const std::string& source_path, const std::string& base_hint,
      std::string* base_ref, std::size_t* shipped_bytes) const;
  std::shared_ptr<serve::ModelStore> build_file_base(
      const std::string& name, const std::string& base_id,
      const std::string& source_dir, std::set<std::uint32_t>& visited,
      int depth, std::size_t* shipped_bytes) const;
  serve::ModelStoreOptions serving_options(const std::string& trace_label)
      const;

  const serve::ModelStoreOptions store_template_;
  std::shared_ptr<serve::SharedCacheBudget> budget_;

  mutable util::Mutex mu_;
  std::map<std::string, std::shared_ptr<const ServedModel>> models_
      DEEPSZ_GUARDED_BY(mu_);
  std::uint64_t next_version_ DEEPSZ_GUARDED_BY(mu_) = 1;
  std::uint64_t bytes_shipped_ DEEPSZ_GUARDED_BY(mu_) = 0;
};

/// Reads a whole file; throws std::runtime_error on failure.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

}  // namespace deepsz::server
