#include "serve/protocol.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.h"

namespace emoleak::serve {

namespace {

/// Encode-time mirror of the decoder's bounds checks: refuses an array
/// whose elements alone would overflow kMaxPayload (or the u32 element
/// count), *before* anything is written. Without this, a caller could
/// hand encode() a chunk whose size truncates through the u32 count
/// field — emitting a frame the peer's decoder must reject.
void check_array_encodable(std::size_t count, std::size_t elem_bytes,
                           const char* what) {
  if (count > std::numeric_limits<std::uint32_t>::max() ||
      count > kMaxPayload / elem_bytes) {
    throw util::DataError{std::string{"serve::encode: "} + what +
                          " count exceeds frame limits"};
  }
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, std::string_view s) {
  check_array_encodable(s.size(), 1, "string");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian cursor over one frame payload.
class Cursor {
 public:
  explicit Cursor(std::string_view payload) : payload_{payload} {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(payload_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(payload_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(payload_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(u32());
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] std::vector<double> f64_array() {
    const std::uint32_t n = u32();
    need(std::size_t{n} * 8);  // before allocating — see kMaxPayload
    std::vector<double> out(n);
    for (double& v : out) v = f64();
    return out;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);  // before allocating — see kMaxPayload
    std::string out{payload_.substr(pos_, n)};
    pos_ += n;
    return out;
  }

  /// True once the whole payload is consumed — lets a decoder accept an
  /// older, shorter encoding of a message (trailing fields absent).
  [[nodiscard]] bool done() const noexcept { return pos_ == payload_.size(); }

  void expect_done() const {
    if (pos_ != payload_.size()) {
      throw util::DataError{"serve::decode: trailing bytes in frame"};
    }
  }

 private:
  void need(std::size_t n) const {
    if (payload_.size() - pos_ < n) {
      throw util::DataError{"serve::decode: short payload"};
    }
  }

  std::string_view payload_;
  std::size_t pos_ = 0;
};

void encode_payload(std::string& out, const Message& msg) {
  std::visit(
      [&out](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ChunkPushMsg>) {
          check_array_encodable(m.samples.size(), 8, "chunk samples");
          put_u8(out, static_cast<std::uint8_t>(MsgType::kChunkPush));
          put_u64(out, m.stream_id);
          put_u32(out, static_cast<std::uint32_t>(m.samples.size()));
          for (const double v : m.samples) put_f64(out, v);
        } else if constexpr (std::is_same_v<T, StreamFinishMsg>) {
          put_u8(out, static_cast<std::uint8_t>(MsgType::kStreamFinish));
          put_u64(out, m.stream_id);
        } else if constexpr (std::is_same_v<T, EventMsg>) {
          check_array_encodable(m.event.probabilities.size(), 8,
                                "event probabilities");
          put_u8(out, static_cast<std::uint8_t>(MsgType::kEvent));
          put_u64(out, m.stream_id);
          put_u64(out, m.event.start_sample);
          put_u64(out, m.event.end_sample);
          put_i32(out, m.event.predicted_class);
          put_u32(out, static_cast<std::uint32_t>(m.event.probabilities.size()));
          for (const double v : m.event.probabilities) put_f64(out, v);
        } else if constexpr (std::is_same_v<T, AckMsg>) {
          put_u8(out, static_cast<std::uint8_t>(MsgType::kAck));
          put_u8(out, static_cast<std::uint8_t>(m.status));
          put_u32(out, m.retry_after_ms);
        } else if constexpr (std::is_same_v<T, StreamStartMsg>) {
          put_u8(out, static_cast<std::uint8_t>(MsgType::kStreamStart));
          put_u64(out, m.stream_id);
          // An empty name encodes to the v1 short form (stream_id only)
          // so a default-task start is byte-identical to what a v1 peer
          // would have sent.
          if (!m.model_name.empty()) put_str(out, m.model_name);
        } else if constexpr (std::is_same_v<T, MetricsRequestMsg>) {
          put_u8(out, static_cast<std::uint8_t>(MsgType::kMetricsRequest));
        } else if constexpr (std::is_same_v<T, MetricsReplyMsg>) {
          const obs::RegistrySnapshot& s = m.snapshot;
          check_array_encodable(s.counters.size(), 12, "metric counters");
          check_array_encodable(s.gauges.size(), 12, "metric gauges");
          check_array_encodable(s.histograms.size(), 16, "metric histograms");
          put_u8(out, static_cast<std::uint8_t>(MsgType::kMetricsReply));
          put_u32(out, static_cast<std::uint32_t>(s.counters.size()));
          for (const auto& [name, value] : s.counters) {
            put_str(out, name);
            put_u64(out, value);
          }
          put_u32(out, static_cast<std::uint32_t>(s.gauges.size()));
          for (const auto& [name, value] : s.gauges) {
            put_str(out, name);
            put_u64(out, static_cast<std::uint64_t>(value));  // two's complement
          }
          put_u32(out, static_cast<std::uint32_t>(s.histograms.size()));
          for (const auto& [name, h] : s.histograms) {
            check_array_encodable(h.buckets.size(), 16, "histogram buckets");
            put_str(out, name);
            put_f64(out, h.sum);
            put_u32(out, static_cast<std::uint32_t>(h.buckets.size()));
            for (const obs::HistogramSnapshot::Bucket& b : h.buckets) {
              put_f64(out, b.upper);
              put_u64(out, b.count);
            }
          }
        } else if constexpr (std::is_same_v<T, TraceRequestMsg>) {
          put_u8(out, static_cast<std::uint8_t>(MsgType::kTraceRequest));
        } else if constexpr (std::is_same_v<T, TraceReplyMsg>) {
          put_u8(out, static_cast<std::uint8_t>(MsgType::kTraceReply));
          put_str(out, m.trace_json);
          put_u64(out, m.dropped_spans);
        }
      },
      msg);
}

Message decode_payload(std::string_view payload) {
  Cursor c{payload};
  const auto type = static_cast<MsgType>(c.u8());
  Message msg;
  switch (type) {
    case MsgType::kChunkPush: {
      ChunkPushMsg m;
      m.stream_id = c.u64();
      m.samples = c.f64_array();
      // A NaN or inf sample would poison the session's envelope for
      // good; refuse it as a corrupt frame.
      if (!std::all_of(m.samples.begin(), m.samples.end(),
                       [](double v) { return std::isfinite(v); })) {
        throw util::DataError{"serve::decode: non-finite sample"};
      }
      msg = std::move(m);
      break;
    }
    case MsgType::kStreamFinish: {
      StreamFinishMsg m;
      m.stream_id = c.u64();
      msg = m;
      break;
    }
    case MsgType::kEvent: {
      EventMsg m;
      m.stream_id = c.u64();
      m.event.start_sample = c.u64();
      m.event.end_sample = c.u64();
      m.event.predicted_class = c.i32();
      m.event.probabilities = c.f64_array();
      msg = std::move(m);
      break;
    }
    case MsgType::kAck: {
      AckMsg m;
      const std::uint8_t status = c.u8();
      if (status > static_cast<std::uint8_t>(Status::kError)) {
        throw util::DataError{"serve::decode: bad ack status"};
      }
      m.status = static_cast<Status>(status);
      m.retry_after_ms = c.u32();
      msg = m;
      break;
    }
    case MsgType::kStreamStart: {
      StreamStartMsg m;
      m.stream_id = c.u64();
      // v1 short form carries only the stream id — absent name means
      // the registry default.
      if (!c.done()) m.model_name = c.str();
      msg = std::move(m);
      break;
    }
    case MsgType::kMetricsRequest:
      msg = MetricsRequestMsg{};
      break;
    case MsgType::kMetricsReply: {
      MetricsReplyMsg m;
      obs::RegistrySnapshot& s = m.snapshot;
      // No reserve before reading: hostile counts must not provoke huge
      // allocations — growth is bounded by bytes that actually arrived.
      const std::uint32_t counters = c.u32();
      for (std::uint32_t i = 0; i < counters; ++i) {
        std::string name = c.str();
        const std::uint64_t value = c.u64();
        s.counters.emplace_back(std::move(name), value);
      }
      const std::uint32_t gauges = c.u32();
      for (std::uint32_t i = 0; i < gauges; ++i) {
        std::string name = c.str();
        const auto value = static_cast<std::int64_t>(c.u64());
        s.gauges.emplace_back(std::move(name), value);
      }
      const std::uint32_t histograms = c.u32();
      for (std::uint32_t i = 0; i < histograms; ++i) {
        std::string name = c.str();
        obs::HistogramSnapshot h;
        h.sum = c.f64();
        const std::uint32_t buckets = c.u32();
        for (std::uint32_t j = 0; j < buckets; ++j) {
          const double upper = c.f64();
          const std::uint64_t count = c.u64();
          h.buckets.push_back({upper, count});
          h.count += count;  // derived, not wired — stays self-consistent
        }
        s.histograms.emplace_back(std::move(name), std::move(h));
      }
      msg = std::move(m);
      break;
    }
    case MsgType::kTraceRequest:
      msg = TraceRequestMsg{};
      break;
    case MsgType::kTraceReply: {
      TraceReplyMsg m;
      m.trace_json = c.str();
      m.dropped_spans = c.u64();
      msg = std::move(m);
      break;
    }
    default:
      throw util::DataError{"serve::decode: unknown message type"};
  }
  c.expect_done();
  return msg;
}

}  // namespace

void encode(std::string& out, const Message& msg) {
  const std::size_t header_at = out.size();
  put_u32(out, 0);  // placeholder
  try {
    encode_payload(out, msg);
  } catch (...) {
    out.resize(header_at);  // no half-written frame may reach the wire
    throw;
  }
  const std::size_t payload_size = out.size() - header_at - 4;
  if (payload_size > kMaxPayload) {
    // Belt and braces behind check_array_encodable: our decoder would
    // reject this frame, so the encoder must not produce it.
    out.resize(header_at);
    throw util::DataError{"serve::encode: frame exceeds kMaxPayload"};
  }
  const auto len = static_cast<std::uint32_t>(payload_size);
  for (int i = 0; i < 4; ++i) {
    out[header_at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

std::string encode_one(const Message& msg) {
  std::string out;
  encode(out, msg);
  return out;
}

std::optional<Message> FrameReader::next() {
  needed_ = 0;
  const std::size_t avail = bytes_.size() - offset_;
  if (avail == 0) return std::nullopt;
  if (avail < 4) {
    // Partial length prefix — on a TCP stream frames split at arbitrary
    // byte boundaries, so this is a resumable state, not corruption.
    needed_ = 4 - avail;
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[offset_ + static_cast<std::size_t>(i)]))
           << (8 * i);
  }
  if (len > kMaxPayload) {
    // Genuinely corrupt: no legitimate peer frames this much. Throwing
    // (rather than waiting for 4 GiB that will never arrive) is what
    // lets the transport close the connection promptly.
    throw util::DataError{"serve::decode: frame length out of range"};
  }
  if (avail - 4 < len) {
    needed_ = len - (avail - 4);
    return std::nullopt;
  }
  const std::string_view payload = bytes_.substr(offset_ + 4, len);
  offset_ += 4 + len;
  return decode_payload(payload);
}

}  // namespace emoleak::serve
