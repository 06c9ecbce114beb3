#include "serve/model_registry.h"

#include <algorithm>

#include "ml/serialize.h"
#include "util/error.h"

namespace emoleak::serve {

std::uint32_t ModelRegistry::add(std::string name, ModelPtr model,
                                 core::FeatureRoute route) {
  if (!model) throw util::DataError{"ModelRegistry::add: null model"};
  std::lock_guard<std::mutex> lock{mutex_};
  entries_.push_back(Entry{std::move(name), std::move(model), route});
  const auto version = static_cast<std::uint32_t>(entries_.size());

  NameState& state = names_[entries_.back().name];
  const bool swap = state.active_version != 0;  // duplicate-name re-register
  state.active_version = version;
  ++state.versions;

  if (default_version_ == 0) {
    // First model ever: becomes the default, generation starts ticking.
    default_version_ = version;
    generation_.store(1, std::memory_order_release);
  } else if (swap) {
    // Sessions bound to this name must re-resolve; sessions holding the
    // old ModelPtr keep it alive through their shared_ptr until then.
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  return version;
}

std::uint32_t ModelRegistry::load_file(std::string name,
                                       const std::string& path,
                                       core::FeatureRoute route) {
  // Parse outside the lock: load_model_file is the expensive, throwing
  // part, and a malformed file must not poison the registry.
  ModelPtr model = ml::load_model_file(path);
  return add(std::move(name), std::move(model), route);
}

void ModelRegistry::activate(std::uint32_t version) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (version == 0 || version > entries_.size()) {
    throw util::DataError{"ModelRegistry::activate: unknown version " +
                          std::to_string(version)};
  }
  default_version_ = version;
  names_[entries_[version - 1].name].active_version = version;
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

ModelRegistry::ModelPtr ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock{mutex_};
  if (default_version_ == 0) return nullptr;
  return entries_[default_version_ - 1].model;
}

ModelRegistry::Resolved ModelRegistry::resolve_locked(
    const std::string& name) const {
  Resolved out;
  out.generation = generation_.load(std::memory_order_acquire);
  std::uint32_t version = 0;
  if (name.empty()) {
    version = default_version_;
  } else if (const auto it = names_.find(name); it != names_.end()) {
    version = it->second.active_version;
  }
  if (version == 0) return out;  // unknown name or empty registry
  const Entry& entry = entries_[version - 1];
  out.model = entry.model;
  out.route = entry.route;
  out.name = entry.name;
  out.version = version;
  return out;
}

ModelRegistry::Resolved ModelRegistry::resolve(const std::string& name) const {
  std::lock_guard<std::mutex> lock{mutex_};
  return resolve_locked(name);
}

bool ModelRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock{mutex_};
  if (name.empty()) return default_version_ != 0;
  const auto it = names_.find(name);
  return it != names_.end() && it->second.active_version != 0;
}

ModelRegistry::ModelPtr ModelRegistry::get(std::uint32_t version) const {
  std::lock_guard<std::mutex> lock{mutex_};
  if (version == 0 || version > entries_.size()) return nullptr;
  return entries_[version - 1].model;
}

std::vector<ModelRegistry::ModelInfo> ModelRegistry::list() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<ModelInfo> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out.push_back(ModelInfo{static_cast<std::uint32_t>(i + 1),
                            entries_[i].name, entries_[i].model->name()});
  }
  return out;
}

std::vector<ModelRegistry::NameInfo> ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<NameInfo> out;
  out.reserve(names_.size());
  for (const auto& [name, state] : names_) {
    out.push_back(NameInfo{name, state.active_version, state.versions});
  }
  std::sort(out.begin(), out.end(),
            [](const NameInfo& a, const NameInfo& b) { return a.name < b.name; });
  return out;
}

}  // namespace emoleak::serve
