#include "server/model_repository.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "serve/inference_session.h"

namespace deepsz::server {

namespace {

// Directory part of `path` for resolving a delta's base_id relative to the
// file it arrived in; empty when the path has no directory component.
std::string dirname_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

ModelRepository::ModelRepository(std::size_t cache_budget_bytes,
                                 serve::ModelStoreOptions store_options)
    : store_template_(std::move(store_options)),
      budget_(std::make_shared<serve::SharedCacheBudget>(cache_budget_bytes)) {
}

serve::ModelStoreOptions ModelRepository::serving_options(
    const std::string& trace_label) const {
  serve::ModelStoreOptions opts = store_template_;
  opts.shared_budget = budget_;
  // Per-store budgets off: eviction pressure is purely cross-model.
  opts.cache_budget_bytes = static_cast<std::size_t>(-1);
  // Serve each layer in its native form: "dc" containers stay resident as
  // codebook-CSR (~4-5 bits/weight), pruned layers as CSR only, and only
  // dense layers inflate to f32.
  opts.native_form = true;
  // Decode spans and stage histograms attribute to the serving name.
  opts.trace_label = trace_label;
  return opts;
}

std::shared_ptr<serve::ModelStore> ModelRepository::build_file_base(
    const std::string& name, const std::string& base_id,
    const std::string& source_dir, std::set<std::uint32_t>& visited,
    int depth, std::size_t* shipped_bytes) const {
  if (depth <= 0) {
    throw std::runtime_error("ModelRepository: base chain for \"" + name +
                             "\" deeper than " +
                             std::to_string(core::ContainerReader::
                                                kMaxChainDepth));
  }
  std::vector<std::uint8_t> bytes;
  try {
    bytes = read_file_bytes(base_id);
  } catch (const std::runtime_error&) {
    if (source_dir.empty()) throw;
    bytes = read_file_bytes(source_dir + "/" + base_id);
  }

  serve::ModelStoreOptions opts = serving_options(name + ":base");
  {
    // Scoped: the probe views `bytes`, which the store takes by move below.
    core::ContainerReader probe(bytes);
    if (!visited.insert(probe.container_crc()).second) {
      throw std::runtime_error("ModelRepository: base chain for \"" + name +
                               "\" cycles through \"" + base_id + "\"");
    }
    if (probe.is_delta()) {
      // A loaded model may already be this hop's base — reuse its residency.
      for (const auto& m : list()) {
        if (m->container_crc == probe.base_crc()) {
          opts.base_store = m->store;
          break;
        }
      }
      if (!opts.base_store) {
        opts.base_store = build_file_base(name, probe.base_id(), source_dir,
                                          visited, depth - 1, shipped_bytes);
      }
    }
  }
  *shipped_bytes += bytes.size();
  return std::make_shared<serve::ModelStore>(std::move(bytes), opts);
}

std::shared_ptr<serve::ModelStore> ModelRepository::resolve_base_store(
    const std::string& name, const core::ContainerReader& probe,
    const std::string& source_path, const std::string& base_hint,
    std::string* base_ref, std::size_t* shipped_bytes) const {
  if (!base_hint.empty()) {
    auto base = get(base_hint);
    if (!base) {
      throw std::invalid_argument("ModelRepository: base model \"" +
                                  base_hint + "\" for delta \"" + name +
                                  "\" is not loaded");
    }
    *base_ref = base_hint;
    return base->store;
  }
  // Auto-detect: any loaded model whose whole-container CRC matches the
  // delta's base pin serves as the base, whatever it is named.
  for (const auto& m : list()) {
    if (m->container_crc == probe.base_crc()) {
      *base_ref = m->name;
      return m->store;
    }
  }
  // Cold fallback: walk the base_id file chain. Seed the cycle set with the
  // delta itself so a base_id pointing back at this container is caught.
  std::set<std::uint32_t> visited{probe.container_crc()};
  auto store =
      build_file_base(name, probe.base_id(), dirname_of(source_path), visited,
                      core::ContainerReader::kMaxChainDepth, shipped_bytes);
  *base_ref = probe.base_id();
  return store;
}

std::shared_ptr<ServedModel> ModelRepository::build(
    const std::string& name, std::vector<std::uint8_t> container,
    std::string source_path, const std::string& base_hint) const {
  auto model = std::make_shared<ServedModel>();
  model->name = name;
  model->source_path = std::move(source_path);
  model->container_bytes = container.size();
  model->shipped_bytes = container.size();

  serve::ModelStoreOptions opts = serving_options(name);
  {
    // Scoped: the probe views `container`, which the store takes by move.
    core::ContainerReader probe(container);
    model->container_crc = probe.container_crc();
    if (probe.is_delta()) {
      opts.base_store =
          resolve_base_store(name, probe, model->source_path, base_hint,
                             &model->base_ref, &model->shipped_bytes);
    } else if (!base_hint.empty()) {
      throw std::invalid_argument("ModelRepository: base hint \"" + base_hint +
                                  "\" supplied for \"" + name +
                                  "\", which is not a delta container");
    }
  }
  model->store =
      std::make_shared<serve::ModelStore>(std::move(container), opts);

  // Reject containers the serving path cannot run (non-chaining fc stack,
  // no layers) BEFORE the swap; check_fc_chain throws std::invalid_argument.
  serve::check_fc_chain(model->store->reader());
  const auto& entries = model->store->reader().entries();
  model->in_features = entries.front().cols;
  model->out_features = entries.back().rows;
  return model;
}

std::shared_ptr<const ServedModel> ModelRepository::load(
    const std::string& name, std::vector<std::uint8_t> container,
    std::string source_path, const std::string& base_hint) {
  if (name.empty()) {
    throw std::invalid_argument("ModelRepository::load: empty model name");
  }
  auto model =
      build(name, std::move(container), std::move(source_path), base_hint);
  util::MutexLock lock(mu_);
  model->version = next_version_++;
  bytes_shipped_ += model->shipped_bytes;
  models_[name] = model;  // old snapshot drains via its shared_ptr
  return model;
}

std::shared_ptr<const ServedModel> ModelRepository::load_file(
    const std::string& name, const std::string& path,
    const std::string& base_hint) {
  return load(name, read_file_bytes(path), path, base_hint);
}

std::shared_ptr<const ServedModel> ModelRepository::reload(
    const std::string& name) {
  std::string path;
  {
    util::MutexLock lock(mu_);
    auto it = models_.find(name);
    if (it == models_.end()) {
      throw std::out_of_range("ModelRepository::reload: no model \"" + name +
                              "\"");
    }
    path = it->second->source_path;
  }
  if (path.empty()) {
    throw std::logic_error("ModelRepository::reload: model \"" + name +
                           "\" was loaded from memory (no source path)");
  }
  return load_file(name, path);
}

bool ModelRepository::unload(const std::string& name) {
  util::MutexLock lock(mu_);
  return models_.erase(name) > 0;
}

std::shared_ptr<const ServedModel> ModelRepository::get(
    const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = models_.find(name);
  return it != models_.end() ? it->second : nullptr;
}

std::vector<std::shared_ptr<const ServedModel>> ModelRepository::list() const {
  util::MutexLock lock(mu_);
  std::vector<std::shared_ptr<const ServedModel>> out;
  out.reserve(models_.size());
  for (const auto& [_, model] : models_) out.push_back(model);
  return out;
}

std::size_t ModelRepository::size() const {
  util::MutexLock lock(mu_);
  return models_.size();
}

std::uint64_t ModelRepository::bytes_shipped() const {
  util::MutexLock lock(mu_);
  return bytes_shipped_;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    throw std::runtime_error("cannot stat " + path);
  }
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  if (std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    throw std::runtime_error("short read from " + path);
  }
  std::fclose(f);
  return data;
}

}  // namespace deepsz::server
