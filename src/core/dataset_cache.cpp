#include "core/dataset_cache.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "features/features.h"
#include "obs/metrics.h"

namespace emoleak::core {

namespace {

/// Canonical, lossless field rendering: doubles as hexfloats (round-trip
/// exact), every field separated so adjacent values can't alias. The
/// full string is the map key — no hashing, so collisions are
/// impossible by construction.
class KeyWriter {
 public:
  KeyWriter& field(const std::string& v) {
    out_ << v.size() << ':' << v << '|';
    return *this;
  }
  KeyWriter& field(double v) {
    out_ << std::hexfloat << v << '|';
    return *this;
  }
  KeyWriter& field(std::uint64_t v) {
    out_ << v << '|';
    return *this;
  }
  KeyWriter& field(std::int64_t v) {
    out_ << v << '|';
    return *this;
  }
  KeyWriter& field(int v) { return field(static_cast<std::int64_t>(v)); }
  KeyWriter& field(bool v) { return field(static_cast<std::int64_t>(v)); }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

void write_dataset(KeyWriter& k, const audio::DatasetSpec& d) {
  k.field(d.name);
  k.field(d.emotions.size());
  for (const audio::Emotion e : d.emotions) k.field(static_cast<int>(e));
  k.field(d.speaker_count);
  k.field(d.utterances_per_speaker_emotion);
  k.field(d.male_fraction);
  k.field(d.expressiveness);
  k.field(d.speaker_variability);
  k.field(d.expressiveness_jitter);
  k.field(d.synth.sample_rate_hz);
  k.field(d.synth.target_duration_s);
  k.field(d.synth.duration_jitter);
  k.field(d.synth.max_harmonics);
}

void write_phone(KeyWriter& k, const phone::PhoneProfile& p) {
  k.field(p.name);
  k.field(p.accel_rate_hz);
  k.field(p.accel_noise_sigma);
  k.field(p.accel_lsb);
  k.field(p.internal_lpf_order);
  k.field(p.internal_lpf_cutoff_factor);
  k.field(p.software_cap_hz);
  k.field(p.loudspeaker_gain);
  k.field(p.ear_speaker_gain);
  k.field(p.speaker_rolloff_hz);
  k.field(p.ear_rolloff_hz);
  k.field(p.ear_rolloff_order);
  k.field(p.resonances.size());
  for (const phone::Resonance& r : p.resonances) {
    k.field(r.frequency_hz);
    k.field(r.q);
    k.field(r.gain);
  }
  k.field(p.direct_path_gain);
  k.field(p.coupling_jitter);
}

void write_pipeline(KeyWriter& k, const PipelineConfig& p) {
  const DetectorConfig& d = p.detector;
  k.field(d.detection_highpass_hz);
  k.field(d.highpass_order);
  k.field(d.envelope_window_s);
  k.field(d.threshold_k);
  k.field(d.min_ratio);
  k.field(d.min_region_s);
  k.field(d.merge_gap_s);
  k.field(d.pad_s);
  k.field(p.image_size);
  k.field(p.stft.window_length);
  k.field(p.stft.hop);
  // p.parallelism deliberately omitted: extraction is bit-identical at
  // any thread count (see PipelineConfig), so runs that differ only in
  // thread budget must share the cached dataset.
}

std::uint64_t approximate_bytes(const ExtractedData& data) {
  std::uint64_t bytes = 0;
  for (const auto& row : data.features.x) bytes += row.size() * sizeof(double);
  bytes += data.features.y.size() * sizeof(int);
  for (const auto& img : data.spectrograms) bytes += img.size() * sizeof(double);
  bytes += data.speaker_ids.size() * sizeof(int);
  return bytes;
}

// ---------------------------------------------------------------------------
// Disk-tier file format.
//
//   FileHeader | key bytes | payload bytes
//
// The header carries its own checksum (over every header field and the
// key) plus a checksum of the payload, so truncation, bit rot and
// hash-collision misaddressing all read as a miss instead of bad data.
// Fields are written in the host's native byte order: the files are a
// local cache shared between processes on one machine, not an
// interchange format.

constexpr std::uint64_t kFileMagic = 0x314B53444C4D45ULL;  // "EMLDSK1"
constexpr std::uint64_t kFileVersion = 1;

struct FileHeader {
  std::uint64_t magic = kFileMagic;
  std::uint64_t version = kFileVersion;
  std::uint64_t key_size = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_fnv = 0;
  std::uint64_t header_fnv = 0;  ///< over the five fields above + key
};
static_assert(sizeof(FileHeader) == 48);

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t header_checksum(const FileHeader& h, const std::string& key) {
  const std::uint64_t fields = fnv1a64(&h, offsetof(FileHeader, header_fnv));
  return fnv1a64(key.data(), key.size(), fields);
}

/// Appends native-endian scalars into a flat byte buffer.
class ByteWriter {
 public:
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over a mapped payload; any overrun throws and
/// the caller treats the file as corrupt.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_{data}, size_{size} {}

  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::vector<double> f64s() {
    const std::uint64_t n = count(u64(), sizeof(double));
    std::vector<double> v(n);
    raw(v.data(), n * sizeof(double));
    return v;
  }
  std::string str() {
    const std::uint64_t n = count(u64(), 1);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  void raw(void* out, std::size_t n) {
    if (n > size_ - pos_) throw std::runtime_error{"dataset file truncated"};
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

  /// Rejects element counts that can't possibly fit the remaining
  /// bytes (at `elem` bytes each) before any allocation is attempted.
  std::uint64_t count(std::uint64_t n, std::size_t elem) {
    if (n > (size_ - pos_) / elem) {
      throw std::runtime_error{"dataset file truncated"};
    }
    return n;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::string serialize_payload(const ExtractedData& d) {
  ByteWriter w;
  w.u64(d.features.x.size());
  for (const auto& row : d.features.x) w.f64s(row);
  w.u64(d.features.y.size());
  for (const int y : d.features.y) w.i64(y);
  w.i64(d.features.class_count);
  w.u64(d.features.feature_names.size());
  for (const auto& s : d.features.feature_names) w.str(s);
  w.u64(d.features.class_names.size());
  for (const auto& s : d.features.class_names) w.str(s);
  w.u64(d.spectrograms.size());
  for (const auto& img : d.spectrograms) w.f64s(img);
  w.u64(d.speaker_ids.size());
  for (const int id : d.speaker_ids) w.i64(id);
  w.u64(d.image_size);
  w.u64(d.regions_detected);
  w.u64(d.utterances_total);
  w.f64(d.extraction_rate);
  return w.bytes();
}

ExtractedData deserialize_payload(const std::uint8_t* data, std::size_t size) {
  ByteReader r{data, size};
  // Every element of an outer sequence takes at least 8 bytes (a u64
  // length prefix or an i64), so each count is bounded by the bytes
  // left before the resize allocates.
  const auto outer = [&r] { return r.count(r.u64(), 8); };
  ExtractedData d;
  d.features.x.resize(outer());
  for (auto& row : d.features.x) row = r.f64s();
  d.features.y.resize(outer());
  for (int& y : d.features.y) y = static_cast<int>(r.i64());
  d.features.class_count = static_cast<int>(r.i64());
  d.features.feature_names.resize(outer());
  for (auto& s : d.features.feature_names) s = r.str();
  d.features.class_names.resize(outer());
  for (auto& s : d.features.class_names) s = r.str();
  d.spectrograms.resize(outer());
  for (auto& img : d.spectrograms) img = r.f64s();
  d.speaker_ids.resize(outer());
  for (int& id : d.speaker_ids) id = static_cast<int>(r.i64());
  d.image_size = r.u64();
  d.regions_detected = r.u64();
  d.utterances_total = r.u64();
  d.extraction_rate = r.f64();
  if (!r.exhausted()) throw std::runtime_error{"dataset file overlong"};
  return d;
}

/// Read-only mapping of a whole file; unmapped on destruction. Once
/// mapped, the pages stay valid even if the file is unlinked as
/// corrupt or renamed over by a concurrent writer — the kernel frees
/// them at munmap.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data_ != nullptr) ::munmap(data_, size_);
  }

  [[nodiscard]] bool open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return false;
    }
    void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping holds its own reference
    if (map == MAP_FAILED) return false;
    data_ = map;
    size_ = static_cast<std::size_t>(st.st_size);
    return true;
  }

  [[nodiscard]] const std::uint8_t* data() const {
    return static_cast<const std::uint8_t*>(data_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

constexpr const char* kFilePrefix = "emoleak-ds-";
constexpr const char* kFileSuffix = ".bin";

std::string hex16(std::uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

obs::Registry& registry() { return obs::Registry::instance(); }

void update_memory_gauges(std::uint64_t bytes, std::uint64_t entries) {
  registry().gauge("dataset_cache.memory.bytes").set(
      static_cast<std::int64_t>(bytes));
  registry().gauge("dataset_cache.memory.entries").set(
      static_cast<std::int64_t>(entries));
}

}  // namespace

std::string DatasetCache::key_of(const ScenarioConfig& config) {
  KeyWriter k;
  k.field(std::string{"emoleak-dataset-v1"});
  // The feature schema participates in the key: if the Table-II set
  // ever changes shape, previously cached datasets stop matching.
  k.field(features::schema_signature());
  write_dataset(k, config.dataset);
  write_phone(k, config.phone);
  k.field(static_cast<int>(config.speaker));
  k.field(static_cast<int>(config.posture));
  k.field(config.corpus_fraction);
  k.field(config.seed);
  write_pipeline(k, config.pipeline);
  return k.str();
}

DatasetCache::DatasetCache(std::string disk_dir)
    : disk_dir_{std::move(disk_dir)} {}

DatasetCache& DatasetCache::instance() {
  static DatasetCache cache{[] {
    const char* dir = std::getenv("EMOLEAK_DATASET_CACHE_DIR");
    return std::string{dir != nullptr ? dir : ""};
  }()};
  return cache;
}

std::string DatasetCache::disk_path_of(const std::string& key) const {
  if (disk_dir_.empty()) return {};
  return disk_dir_ + "/" + kFilePrefix +
         hex16(fnv1a64(key.data(), key.size())) + kFileSuffix;
}

std::shared_ptr<const ExtractedData> DatasetCache::get_or_build(
    const ScenarioConfig& config) {
  return get_or_build(key_of(config), [&config] { return capture(config); });
}

std::shared_ptr<const ExtractedData> DatasetCache::get_or_build(
    const std::string& key, const std::function<ExtractedData()>& build) {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      registry().counter("dataset_cache.hits").add(1);
      registry().counter("dataset_cache.memory.hits").add(1);
      return it->second;
    }
    registry().counter("dataset_cache.memory.misses").add(1);
  }

  if (!disk_dir_.empty()) {
    if (auto loaded = disk_load(key)) {
      registry().counter("dataset_cache.hits").add(1);
      registry().counter("dataset_cache.disk.hits").add(1);
      return insert(key, std::move(loaded));
    }
    registry().counter("dataset_cache.disk.misses").add(1);
  }

  registry().counter("dataset_cache.misses").add(1);
  // Build outside the lock: a capture can take seconds and must not
  // serialize hits (or builds of other keys) behind it.
  auto built = std::make_shared<const ExtractedData>(build());
  registry().counter("dataset_cache.bytes_built").add(approximate_bytes(*built));
  if (!disk_dir_.empty()) disk_store(key, *built);
  return insert(key, std::move(built));
}

std::shared_ptr<const ExtractedData> DatasetCache::insert(
    const std::string& key, std::shared_ptr<const ExtractedData> data) {
  const std::lock_guard<std::mutex> lock{mutex_};
  // A racing builder/loader may have got here first; both snapshots
  // are bit-identical, so keep the incumbent and all callers share one.
  const auto [it, inserted] = entries_.try_emplace(key, std::move(data));
  if (inserted) {
    memory_bytes_ += approximate_bytes(*it->second);
    update_memory_gauges(memory_bytes_, entries_.size());
  }
  return it->second;
}

std::shared_ptr<const ExtractedData> DatasetCache::disk_load(
    const std::string& key) {
  const std::string path = disk_path_of(key);
  MappedFile map;
  if (!map.open(path)) return nullptr;
  const auto corrupt = [&path]() -> std::shared_ptr<const ExtractedData> {
    // A corrupt file can never become a hit again: drop it so the
    // rebuild below replaces it with a good copy.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return nullptr;
  };
  if (map.size() < sizeof(FileHeader)) return corrupt();
  FileHeader header;
  std::memcpy(&header, map.data(), sizeof(header));
  if (header.magic != kFileMagic || header.version != kFileVersion) {
    return corrupt();
  }
  if (map.size() != sizeof(FileHeader) + header.key_size + header.payload_size) {
    return corrupt();
  }
  const std::uint8_t* key_bytes = map.data() + sizeof(FileHeader);
  const std::uint8_t* payload = key_bytes + header.key_size;
  if (header.key_size != key.size() ||
      std::memcmp(key_bytes, key.data(), key.size()) != 0) {
    // FNV collision with another key: a miss (the other key's data
    // must not be returned), but keep the file — it is valid for its
    // owner. The colliding key simply rebuilds every run.
    return nullptr;
  }
  FileHeader expected = header;
  expected.header_fnv = 0;
  if (header.header_fnv != header_checksum(expected, key)) return corrupt();
  if (fnv1a64(payload, header.payload_size) != header.payload_fnv) {
    return corrupt();
  }
  try {
    return std::make_shared<const ExtractedData>(
        deserialize_payload(payload, header.payload_size));
  } catch (const std::exception&) {
    return corrupt();
  }
}

void DatasetCache::disk_store(const std::string& key,
                              const ExtractedData& data) {
  const std::string path = disk_path_of(key);
  std::error_code ec;
  std::filesystem::create_directories(disk_dir_, ec);

  const std::string payload = serialize_payload(data);
  FileHeader header;
  header.key_size = key.size();
  header.payload_size = payload.size();
  header.payload_fnv = fnv1a64(payload.data(), payload.size());
  header.header_fnv = header_checksum(header, key);

  // Write to a unique temp name and rename into place: the rename is
  // atomic, so a concurrent reader sees either no file or a whole one,
  // and racing writers (same key => bit-identical bytes) both succeed.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
                          std::to_string(seq.fetch_add(1));
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(key.data(), static_cast<std::streamsize>(key.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return;  // cache writes are best-effort
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

void DatasetCache::clear() {
  const std::lock_guard<std::mutex> lock{mutex_};
  entries_.clear();
  memory_bytes_ = 0;
  update_memory_gauges(0, 0);
}

std::shared_ptr<const ExtractedData> capture_cached(
    const ScenarioConfig& config) {
  return DatasetCache::instance().get_or_build(config);
}

}  // namespace emoleak::core
