// Memoized dataset construction, tiered across memory and disk.
//
// The synthesize -> conduct -> extract pipeline is fully deterministic:
// ScenarioConfig (plus the feature schema) completely determines the
// ExtractedData it produces. The bench suite, repeated CLI runs, and
// long-lived serve processes rebuild the same datasets over and over,
// so this cache keys each build by a canonical rendering of every
// config field that reaches the pipeline and hands out shared
// read-only snapshots. Parallelism settings are excluded from the key:
// extraction is bit-identical at any thread count, so runs that differ
// only in thread budget share an entry.
//
// Two tiers:
//  * memory — per-process map of shared_ptr snapshots. Entries live
//    until clear() or the cache's destruction.
//  * disk — optional, shared across processes. Each dataset is stored
//    as one file addressed by the FNV-1a hash of its canonical key,
//    with a checksummed header that embeds the full key (so a hash
//    collision reads as a miss, never as wrong data). Files are
//    written to a temp name and renamed into place, so concurrent
//    writers are safe and readers never observe a half-written file;
//    readers mmap the file, verify the checksum, then materialize the
//    snapshot. A corrupt file is unlinked and rebuilt. In-flight mmaps
//    of an unlinked or renamed-over file stay valid (POSIX keeps the
//    pages alive until munmap), so concurrent loads and replacements
//    are benign.
//
// The process-wide instance() enables the disk tier when
// EMOLEAK_DATASET_CACHE_DIR is set. Hits, misses and builds per tier
// are counted in obs::Registry::instance() under `dataset_cache.*`.
//
// Thread safety: lookups and inserts take a mutex, but builds and all
// disk I/O run unlocked, so a long capture never blocks hits on other
// keys. When two threads race to build the same key, the first insert
// wins and the loser adopts the winner's snapshot (both are
// bit-identical).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/attack.h"

namespace emoleak::core {

class DatasetCache {
 public:
  /// Memory-only.
  DatasetCache() = default;
  /// Memory plus the disk tier under `disk_dir` (created on first
  /// write); an empty `disk_dir` disables the disk tier.
  explicit DatasetCache(std::string disk_dir);

  /// The process-wide cache used by capture_cached(), with the disk
  /// tier under EMOLEAK_DATASET_CACHE_DIR when that is set.
  static DatasetCache& instance();

  /// Returns the dataset for `config`, building it with core::capture
  /// on the first request for this key. The returned snapshot is
  /// immutable and stays valid after clear().
  [[nodiscard]] std::shared_ptr<const ExtractedData> get_or_build(
      const ScenarioConfig& config);

  /// Keyed-builder form: the memory/disk lookup with an arbitrary
  /// deterministic builder. `build` runs unlocked and only when both
  /// tiers miss. Exposed for tests and alternate pipelines.
  [[nodiscard]] std::shared_ptr<const ExtractedData> get_or_build(
      const std::string& key, const std::function<ExtractedData()>& build);

  /// Drops all memory-tier entries (disk files are kept).
  /// Outstanding snapshots remain valid through their shared_ptr.
  void clear();

  /// Canonical cache key: every pipeline-reaching ScenarioConfig field
  /// (doubles rendered as hexfloats so the key is lossless) plus the
  /// feature-schema signature. Exposed for tests.
  [[nodiscard]] static std::string key_of(const ScenarioConfig& config);

  /// Disk-tier file path for `key` under this cache's directory
  /// (empty string when the disk tier is disabled). Exposed for tests
  /// (e.g. corrupting a file to exercise the checksum path).
  [[nodiscard]] std::string disk_path_of(const std::string& key) const;

 private:
  /// Inserts under the lock. Returns the entry actually held (an
  /// earlier racing writer wins).
  std::shared_ptr<const ExtractedData> insert(
      const std::string& key, std::shared_ptr<const ExtractedData> data);

  /// Loads `key` from the disk tier; nullptr on miss, checksum or key
  /// mismatch (corrupt files are unlinked so the rebuild replaces them).
  [[nodiscard]] std::shared_ptr<const ExtractedData> disk_load(
      const std::string& key);
  void disk_store(const std::string& key, const ExtractedData& data);

  std::string disk_dir_;
  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ExtractedData>>
      entries_;
  std::uint64_t memory_bytes_ = 0;  ///< payload estimate across entries_
};

/// capture() through the process-wide DatasetCache: the first call for
/// a config pays the full synthesize/conduct/extract cost, every later
/// call with an equivalent config returns the same shared snapshot (or
/// mmap-loads it from the disk tier when another process built it).
[[nodiscard]] std::shared_ptr<const ExtractedData> capture_cached(
    const ScenarioConfig& config);

}  // namespace emoleak::core
