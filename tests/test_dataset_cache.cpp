// Tests for the memoized dataset construction (core/dataset_cache.h).
#include "core/dataset_cache.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using emoleak::core::capture;
using emoleak::core::capture_cached;
using emoleak::core::DatasetCache;
using emoleak::core::ScenarioConfig;

/// A process-wide `dataset_cache.*` counter; tests assert on deltas
/// because every cache instance records into the same registry.
std::uint64_t counter(const std::string& name) {
  return emoleak::obs::Registry::instance().snapshot().counter(
      "dataset_cache." + name);
}

/// A `dataset_cache.*` gauge: the level last set by any cache instance.
std::int64_t gauge(const std::string& name) {
  return emoleak::obs::Registry::instance().snapshot().gauge(
      "dataset_cache." + name);
}

/// A scenario small enough to capture in well under a second.
ScenarioConfig tiny_scenario(std::uint64_t seed = 42) {
  ScenarioConfig sc = emoleak::core::loudspeaker_scenario(
      emoleak::audio::savee_spec(), emoleak::phone::oneplus_7t(), seed);
  sc.corpus_fraction = 0.05;
  return sc;
}

TEST(DatasetCacheTest, HitReturnsBitIdenticalDataset) {
  DatasetCache cache;
  const ScenarioConfig sc = tiny_scenario();
  const auto first = cache.get_or_build(sc);
  const auto second = cache.get_or_build(sc);
  // A hit hands back the very same snapshot...
  EXPECT_EQ(first.get(), second.get());
  // ...and that snapshot is bit-identical to an uncached capture.
  const emoleak::core::ExtractedData fresh = capture(sc);
  EXPECT_EQ(first->features.x, fresh.features.x);
  EXPECT_EQ(first->features.y, fresh.features.y);
  EXPECT_EQ(first->features.class_count, fresh.features.class_count);
  EXPECT_EQ(first->spectrograms, fresh.spectrograms);
  EXPECT_EQ(first->speaker_ids, fresh.speaker_ids);
  EXPECT_EQ(first->regions_detected, fresh.regions_detected);
}

TEST(DatasetCacheTest, CountersTrackHitsAndMisses) {
  DatasetCache cache;
  const std::uint64_t hits = counter("hits");
  const std::uint64_t builds = counter("misses");
  const ScenarioConfig sc = tiny_scenario();
  (void)cache.get_or_build(sc);
  (void)cache.get_or_build(sc);
  (void)cache.get_or_build(tiny_scenario(/*seed=*/43));
  EXPECT_EQ(counter("hits") - hits, 1u);
  EXPECT_EQ(counter("misses") - builds, 2u);
  EXPECT_EQ(gauge("memory.entries"), 2);
  EXPECT_GT(gauge("memory.bytes"), 0);
}

TEST(DatasetCacheTest, KeyCoversEveryPipelineReachingField) {
  const ScenarioConfig base = tiny_scenario();
  const std::string key = DatasetCache::key_of(base);
  EXPECT_EQ(key, DatasetCache::key_of(base)) << "key must be deterministic";

  auto expect_differs = [&](auto mutate, const char* what) {
    ScenarioConfig changed = base;
    mutate(changed);
    EXPECT_NE(DatasetCache::key_of(changed), key) << what;
  };
  expect_differs([](ScenarioConfig& c) { c.seed ^= 1; }, "seed");
  expect_differs([](ScenarioConfig& c) { c.corpus_fraction = 0.06; },
                 "corpus_fraction");
  expect_differs([](ScenarioConfig& c) { c.dataset = emoleak::audio::tess_spec(); },
                 "dataset");
  expect_differs([](ScenarioConfig& c) { c.phone = emoleak::phone::pixel_5(); },
                 "phone");
  expect_differs(
      [](ScenarioConfig& c) { c.speaker = emoleak::phone::SpeakerKind::kEarSpeaker; },
      "speaker");
  expect_differs(
      [](ScenarioConfig& c) { c.posture = emoleak::phone::Posture::kHandheld; },
      "posture");
  expect_differs([](ScenarioConfig& c) { c.pipeline.image_size = 16; },
                 "image_size");
  expect_differs([](ScenarioConfig& c) { c.pipeline.stft.hop = 4; }, "stft");
  expect_differs(
      [](ScenarioConfig& c) { c.pipeline.detector.threshold_k = 2.5; },
      "detector");
}

TEST(DatasetCacheTest, ParallelismExcludedFromKey) {
  // Extraction is bit-identical at any thread count, so thread budget
  // must not fragment the cache.
  const ScenarioConfig base = tiny_scenario();
  ScenarioConfig threaded = base;
  threaded.pipeline.parallelism.threads = 4;
  EXPECT_EQ(DatasetCache::key_of(base), DatasetCache::key_of(threaded));
}

TEST(DatasetCacheTest, ClearDropsEntriesButSnapshotsSurvive) {
  DatasetCache cache;
  const ScenarioConfig sc = tiny_scenario();
  const auto snapshot = cache.get_or_build(sc);
  const std::uint64_t builds = counter("misses");
  cache.clear();
  EXPECT_EQ(gauge("memory.entries"), 0);
  EXPECT_EQ(gauge("memory.bytes"), 0);
  EXPECT_FALSE(snapshot->features.x.empty());  // still valid
  (void)cache.get_or_build(sc);
  EXPECT_EQ(counter("misses") - builds, 1u);  // rebuilt after clear
}

TEST(DatasetCacheTest, ConcurrentRequestsShareOneSnapshotPerKey) {
  DatasetCache cache;
  const ScenarioConfig sc = tiny_scenario();
  std::vector<std::shared_ptr<const emoleak::core::ExtractedData>> got(4);
  std::vector<std::thread> threads;
  threads.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] { got[i] = cache.get_or_build(sc); });
  }
  for (std::thread& t : threads) t.join();
  // Racing builders may each run a capture, but the first insert wins
  // and every caller must end up holding that one snapshot.
  ASSERT_NE(got[0], nullptr);
  for (const auto& g : got) EXPECT_EQ(g.get(), got[0].get());
}

TEST(DatasetCacheTest, ProcessWideHelperUsesSingleton) {
  const ScenarioConfig sc = tiny_scenario(/*seed=*/91);
  const std::uint64_t hits = counter("hits");
  const auto a = capture_cached(sc);
  const auto b = capture_cached(sc);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(counter("hits") - hits, 1u);
}

// ---------------------------------------------------------------------------
// Tiered-cache tests: these drive the keyed-builder interface with
// synthetic datasets so they can exercise the disk tier, corrupt files
// and races without paying for real captures.

using emoleak::core::ExtractedData;

/// A deterministic synthetic dataset of roughly `rows` KiB.
ExtractedData synthetic_data(int tag, std::size_t rows = 8) {
  ExtractedData d;
  d.features.class_count = 3;
  d.features.feature_names = {"f0", "f1"};
  d.features.class_names = {"a", "b", "c"};
  d.image_size = 4;
  d.regions_detected = rows;
  d.utterances_total = rows;
  d.extraction_rate = 0.5 + tag * 0.001;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row(128);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = tag * 1000.0 + i + j * 0.25;
    }
    d.features.x.push_back(row);
    d.features.y.push_back(static_cast<int>(i % 3));
    d.spectrograms.push_back(std::vector<double>(16, tag + 0.5));
    d.speaker_ids.push_back(tag);
  }
  return d;
}

void expect_equal_data(const ExtractedData& a, const ExtractedData& b) {
  EXPECT_EQ(a.features.x, b.features.x);
  EXPECT_EQ(a.features.y, b.features.y);
  EXPECT_EQ(a.features.class_count, b.features.class_count);
  EXPECT_EQ(a.features.feature_names, b.features.feature_names);
  EXPECT_EQ(a.features.class_names, b.features.class_names);
  EXPECT_EQ(a.spectrograms, b.spectrograms);
  EXPECT_EQ(a.speaker_ids, b.speaker_ids);
  EXPECT_EQ(a.image_size, b.image_size);
  EXPECT_EQ(a.regions_detected, b.regions_detected);
  EXPECT_EQ(a.utterances_total, b.utterances_total);
  EXPECT_EQ(a.extraction_rate, b.extraction_rate);
}

/// Fresh per-test scratch directory for the disk tier.
std::string fresh_cache_dir(const char* name) {
  const std::string dir =
      testing::TempDir() + "emoleak_dataset_cache_" + name + "_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DatasetCacheTieredTest, DiskTierRoundTripsAcrossCacheInstances) {
  const std::string dir = fresh_cache_dir("roundtrip");
  const ExtractedData original = synthetic_data(11, /*rows=*/5);
  {
    DatasetCache writer{dir};
    const std::uint64_t disk_misses = counter("disk.misses");
    (void)writer.get_or_build("key-a", [&] { return original; });
    EXPECT_EQ(counter("disk.misses") - disk_misses, 1u);
    EXPECT_TRUE(std::filesystem::exists(writer.disk_path_of("key-a")));
  }
  // A second cache (standing in for a second process) must load the
  // file instead of building.
  DatasetCache reader{dir};
  const std::uint64_t disk_hits = counter("disk.hits");
  const std::uint64_t builds = counter("misses");
  int built = 0;
  const auto loaded = reader.get_or_build("key-a", [&] {
    ++built;
    return synthetic_data(99);
  });
  EXPECT_EQ(built, 0) << "disk tier must satisfy the request";
  EXPECT_EQ(counter("disk.hits") - disk_hits, 1u);
  EXPECT_EQ(counter("misses") - builds, 0u) << "a disk hit is not a build";
  expect_equal_data(*loaded, original);
  std::filesystem::remove_all(dir);
}

TEST(DatasetCacheTieredTest, CorruptedFileIsDetectedAndRebuilt) {
  const std::string dir = fresh_cache_dir("corrupt");
  DatasetCache writer{dir};
  (void)writer.get_or_build("key-c", [] { return synthetic_data(21); });
  const std::string path = writer.disk_path_of("key-c");
  ASSERT_TRUE(std::filesystem::exists(path));

  // Flip one payload byte; the checksum must catch it.
  {
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(-9, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-9, std::ios::end);
    byte = static_cast<char>(byte ^ 0x5A);
    f.write(&byte, 1);
  }
  DatasetCache reader{dir};
  const std::uint64_t disk_hits = counter("disk.hits");
  int built = 0;
  const auto got = reader.get_or_build("key-c", [&] {
    ++built;
    return synthetic_data(21);
  });
  EXPECT_EQ(built, 1) << "corrupt file must read as a miss";
  EXPECT_EQ(counter("disk.hits") - disk_hits, 0u);
  expect_equal_data(*got, synthetic_data(21));
  // The corrupt file was dropped and replaced by the rebuild, so a
  // third instance hits disk again.
  DatasetCache reader2{dir};
  int built2 = 0;
  (void)reader2.get_or_build("key-c", [&] {
    ++built2;
    return synthetic_data(21);
  });
  EXPECT_EQ(built2, 0);
  std::filesystem::remove_all(dir);
}

TEST(DatasetCacheTieredTest, TruncatedFileIsDetectedAndRebuilt) {
  const std::string dir = fresh_cache_dir("truncated");
  DatasetCache writer{dir};
  (void)writer.get_or_build("key-t", [] { return synthetic_data(33); });
  const std::string path = writer.disk_path_of("key-t");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);

  DatasetCache reader{dir};
  int built = 0;
  (void)reader.get_or_build("key-t", [&] {
    ++built;
    return synthetic_data(33);
  });
  EXPECT_EQ(built, 1);
  std::filesystem::remove_all(dir);
}

TEST(DatasetCacheTieredTest, ConcurrentOpenAndReplaceIsSafe) {
  // Loaders mmap-load a key while replacers unlink its file and rebuild
  // it, which renames a fresh copy into place. A file unlinked or
  // renamed over while mapped must stay readable, and every loader must
  // end with correct data (from disk or a rebuild). Unlink-on-corrupt
  // and rename-over race loads the same way. Run under TSan in the
  // sanitizer recipe.
  const std::string dir = fresh_cache_dir("race");
  const ExtractedData want = synthetic_data(50);
  const std::string path = DatasetCache{dir}.disk_path_of("hot");
  {
    DatasetCache seeder{dir};
    (void)seeder.get_or_build("hot", [&] { return synthetic_data(50); });
  }
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 2; ++t) {
    // Loaders: fresh cache instances so every get reaches the disk tier.
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        DatasetCache c{dir};
        const auto got =
            c.get_or_build("hot", [&] { return synthetic_data(50); });
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(got->features.x, want.features.x);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    // Replacers: unlink the file, then rebuild it through a fresh cache
    // whose write renames a new copy over whatever is there.
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        DatasetCache c{dir};
        (void)c.get_or_build("hot", [] { return synthetic_data(50); });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Hostile disk files. The layout (core/dataset_cache.cpp) is a 48-byte
// header of six native-endian u64s — magic, version, key_size,
// payload_size, payload_fnv, header_fnv — then the key, then the
// payload. header_fnv is FNV-1a-64 over the first five fields,
// continued over the key. These helpers forge files whose checksums
// are valid, so the payload decoder itself sees the bytes.

constexpr std::size_t kHeaderSize = 48;

std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string payload_of(const std::string& file) {
  std::uint64_t key_size = 0;
  std::memcpy(&key_size, file.data() + 16, sizeof(key_size));
  return file.substr(kHeaderSize + key_size);
}

/// A file for `key` around `payload` with both checksums recomputed;
/// magic and version come from `valid_file`, a file the cache wrote.
std::string with_checksums(const std::string& valid_file,
                           const std::string& key, const std::string& payload) {
  std::uint64_t h[6];
  std::memcpy(h, valid_file.data(), sizeof(h));
  h[2] = key.size();
  h[3] = payload.size();
  h[4] = fnv1a64(payload.data(), payload.size());
  h[5] = fnv1a64(key.data(), key.size(), fnv1a64(h, 5 * sizeof(h[0])));
  return std::string(reinterpret_cast<const char*>(h), sizeof(h)) + key +
         payload;
}

/// Peak resident set of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(DatasetCacheTieredTest, HugeOuterCountReadsAsMissWithoutAllocating) {
  // Valid checksums around a payload that claims 2^24 feature rows and
  // holds none. Every outer element takes at least 8 bytes, so the
  // decoder must reject the count before it resizes; resizing first
  // touches ~400 MB of empty row vectors before the file reads as
  // truncated.
  const std::string dir = fresh_cache_dir("huge_count");
  DatasetCache writer{dir};
  (void)writer.get_or_build("key-h", [] { return synthetic_data(5); });
  const std::string path = writer.disk_path_of("key-h");
  const std::uint64_t rows = std::uint64_t{1} << 24;
  write_file(path,
             with_checksums(read_file(path), "key-h",
                            std::string(reinterpret_cast<const char*>(&rows),
                                        sizeof(rows))));

  const long peak_before = peak_rss_kib();
  DatasetCache reader{dir};
  int built = 0;
  const auto got = reader.get_or_build("key-h", [&] {
    ++built;
    return synthetic_data(5);
  });
  const long growth_mib = (peak_rss_kib() - peak_before) / 1024;
  EXPECT_EQ(built, 1) << "the forged file must read as a miss";
  expect_equal_data(*got, synthetic_data(5));
  EXPECT_LT(growth_mib, 64) << "the decoder allocated for an unbounded count";
  std::filesystem::remove_all(dir);
}

/// Offsets of every u64 length field in a payload, walked in the
/// serialize order: each outer count and the length prefix of every
/// feature row, name and spectrogram.
std::vector<std::size_t> length_field_offsets(const std::string& payload) {
  std::vector<std::size_t> offsets;
  std::size_t pos = 0;
  const auto length = [&] {
    offsets.push_back(pos);
    std::uint64_t n = 0;
    std::memcpy(&n, payload.data() + pos, sizeof(n));
    pos += sizeof(n);
    return static_cast<std::size_t>(n);
  };
  const auto sequence = [&](std::size_t elem_bytes) {
    for (std::size_t i = length(); i > 0; --i) {
      const std::size_t n = length();
      pos += n * elem_bytes;
    }
  };
  sequence(8);  // feature rows
  const std::size_t labels = length();
  pos += 8 * labels + 8;  // labels, then class_count
  sequence(1);  // feature names
  sequence(1);  // class names
  sequence(8);  // spectrograms
  (void)length();  // speaker ids
  return offsets;
}

/// One seeded mutation of `bytes`: bit flips, a truncation, an edit of
/// one of `length_fields`, or a splice with `donor`.
std::string mutate(std::string bytes, const std::string& donor,
                   const std::vector<std::size_t>& length_fields,
                   emoleak::util::Rng& rng) {
  switch (rng.uniform_int(4)) {
    case 0:
      for (std::uint64_t i = 1 + rng.uniform_int(4); i > 0; --i) {
        const std::uint64_t bit = rng.uniform_int(bytes.size() * 8);
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      return bytes;
    case 1:
      bytes.resize(rng.uniform_int(bytes.size()));
      return bytes;
    case 2: {
      static constexpr std::uint64_t kEdges[] = {
          0, 1, 2, 255, std::uint64_t{1} << 24, std::uint64_t{1} << 32,
          std::uint64_t{1} << 61, ~std::uint64_t{0}};
      const std::size_t at =
          length_fields[rng.uniform_int(length_fields.size())];
      std::uint64_t v = 0;
      std::memcpy(&v, bytes.data() + at, sizeof(v));
      switch (rng.uniform_int(3)) {
        case 0: v = kEdges[rng.uniform_int(std::size(kEdges))]; break;
        case 1: ++v; break;
        default: --v; break;
      }
      std::memcpy(bytes.data() + at, &v, sizeof(v));
      return bytes;
    }
    default:
      return bytes.substr(0, rng.uniform_int(bytes.size() + 1)) +
             donor.substr(rng.uniform_int(donor.size() + 1));
  }
}

TEST(DatasetCacheTieredTest, SeededMutantsReadAsMissOrDecode) {
  // Fixed-seed mutants of a valid file. Half go to disk as mutated, and
  // the checksums must turn each into a miss and a rebuild. The other
  // half mutate only the payload and get both checksums recomputed, so
  // the decoder itself meets the bytes: it must decode them or reject
  // them as a miss. Nothing may throw out of get_or_build.
  const std::string dir = fresh_cache_dir("mutants");
  const std::string key = "fuzz-a";
  const auto build = [] { return synthetic_data(61, /*rows=*/3); };
  std::string file;
  std::string donor;
  {
    DatasetCache seeder{dir};
    (void)seeder.get_or_build(key, build);
    (void)seeder.get_or_build("fuzz-b", [] { return synthetic_data(62, 2); });
    file = read_file(seeder.disk_path_of(key));
    donor = read_file(seeder.disk_path_of("fuzz-b"));
  }
  const std::string path = DatasetCache{dir}.disk_path_of(key);
  const std::string payload = payload_of(file);
  const std::vector<std::size_t> payload_lengths = length_field_offsets(payload);
  std::vector<std::size_t> file_lengths = {16, 24};  // key_size, payload_size
  for (const std::size_t at : payload_lengths) {
    file_lengths.push_back(kHeaderSize + key.size() + at);
  }

  emoleak::util::Rng rng{0x5EED};
  int raw = 0;
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; raw + decoded + rejected < 600; ++i) {
    const bool recompute = i % 2 == 1;
    const std::string mutant =
        recompute ? with_checksums(file, key,
                                   mutate(payload, payload_of(donor),
                                          payload_lengths, rng))
                  : mutate(file, donor, file_lengths, rng);
    if (!recompute && mutant == file) continue;  // the edits cancelled
    write_file(path, mutant);
    DatasetCache cache{dir};
    int built = 0;
    std::shared_ptr<const ExtractedData> got;
    EXPECT_NO_THROW(got = cache.get_or_build(key, [&] {
                      ++built;
                      return build();
                    }))
        << "mutant " << i;
    ASSERT_NE(got, nullptr) << "mutant " << i;
    if (built == 1) expect_equal_data(*got, build());
    if (!recompute) {
      ++raw;
      EXPECT_EQ(built, 1) << "mutant " << i << " must read as a miss";
    } else if (built == 0) {
      ++decoded;
    } else {
      ++rejected;
    }
  }
  // The recomputed half must reach both decoder outcomes.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
  std::filesystem::remove_all(dir);
}
}  // namespace
