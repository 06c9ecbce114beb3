// Versioned, multi-model registry for the serving layer.
//
// The registry warm-loads trained classifiers (ml::load_model_file) and
// hands them out as shared_ptr<const Classifier>, so every session
// shares one immutable model instance and a hot-swap is a pointer
// swing, not a reload. Models register under *names* — one per attack
// task (emotion, speaker, gender, media fingerprint, ...) — and each
// name tracks its own active version:
//
//   - add()/load_file() with a fresh name creates the name and makes
//     the new version its active model;
//   - add()/load_file() with an existing name atomically swaps that
//     name's active model to the new version. Sessions holding the old
//     ModelPtr keep it alive for their in-flight work (shared_ptr
//     ownership) and pick up the swap lazily at their next request;
//   - activate(version) re-points both the *default* model (what
//     unnamed streams bind to) and the version's own name at that
//     version — including rolling a name back to an older version.
//
// Every change that can re-bind a session bumps a generation counter;
// sessions compare their cached generation against it at drain time
// and re-resolve lazily — an O(1) check on the hot path, no locking
// unless a swap actually happened.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/streaming.h"
#include "ml/classifier.h"

namespace emoleak::serve {

class ModelRegistry {
 public:
  using ModelPtr = std::shared_ptr<const ml::Classifier>;

  struct ModelInfo {
    std::uint32_t version = 0;
    std::string name;
    std::string classifier;  ///< Classifier::name()
  };

  /// Per-name view: which version a name currently serves and how
  /// many versions were ever registered under it.
  struct NameInfo {
    std::string name;
    std::uint32_t active_version = 0;
    std::uint32_t versions = 0;
  };

  /// A name resolved to what a session needs to bind: the model, the
  /// feature route it was trained on, its registry version, and the
  /// generation the resolution belongs to.
  struct Resolved {
    ModelPtr model;
    core::FeatureRoute route = core::FeatureRoute::kTableFeatures;
    std::string name;
    std::uint32_t version = 0;
    std::uint64_t generation = 0;
  };

  /// Registers an already-loaded model under the next version number
  /// (versions start at 1) and makes it `name`'s active version. The
  /// first registered model also becomes the default. Re-registering an
  /// existing name is the hot-swap path: the new version becomes
  /// visible atomically, the old one stays alive for in-flight
  /// sessions, and the generation bumps so sessions re-resolve.
  std::uint32_t add(std::string name, ModelPtr model,
                    core::FeatureRoute route =
                        core::FeatureRoute::kTableFeatures);

  /// Loads a model file (ml::load_model_file — throws util::DataError
  /// on malformed input) and registers it. Same duplicate-name
  /// semantics as add().
  std::uint32_t load_file(std::string name, const std::string& path,
                          core::FeatureRoute route =
                              core::FeatureRoute::kTableFeatures);

  /// Atomically makes `version` the default model for new unnamed work
  /// *and* the active version of its own name (this is how a name rolls
  /// back to an earlier version). Throws util::DataError for an unknown
  /// version.
  void activate(std::uint32_t version);

  /// The default model; nullptr before any registration.
  [[nodiscard]] ModelPtr current() const;

  /// Resolves a model name to its active model (empty name = the
  /// default). `model` is nullptr for an unknown name or an empty
  /// registry; `name` echoes the entry's registered name, so callers
  /// binding the default learn which task they actually got.
  [[nodiscard]] Resolved resolve(const std::string& name) const;

  /// True when `name` currently serves a model (empty name: true once
  /// any model is registered). Admission control uses this to reject a
  /// stream-start naming an unknown task before it is enqueued.
  [[nodiscard]] bool has(const std::string& name) const;

  /// Bumps on every visible re-binding (first add, duplicate-name add,
  /// activate); 0 until the first registration. Cheap enough to poll
  /// per request.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ModelPtr get(std::uint32_t version) const;
  [[nodiscard]] std::vector<ModelInfo> list() const;
  /// Per-name active versions, sorted by name.
  [[nodiscard]] std::vector<NameInfo> stats() const;

 private:
  struct Entry {
    std::string name;
    ModelPtr model;
    core::FeatureRoute route = core::FeatureRoute::kTableFeatures;
  };

  struct NameState {
    std::uint32_t active_version = 0;
    std::uint32_t versions = 0;  ///< registrations under this name
  };

  [[nodiscard]] Resolved resolve_locked(const std::string& name) const;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  ///< version v lives at entries_[v - 1]
  std::unordered_map<std::string, NameState> names_;
  std::uint32_t default_version_ = 0;  ///< what unnamed streams bind to
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace emoleak::serve
