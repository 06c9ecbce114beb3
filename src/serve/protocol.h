// Wire protocol for the emoleak::serve inference service.
//
// Little-endian, length-prefixed binary frames:
//
//   u32 payload_length | u8 type | type-specific payload
//
// The in-process transport used by tests and serve_demo concatenates
// frames into a byte buffer; the epoll front end (net/server.h) ships
// the same bytes over TCP sockets. Doubles travel as IEEE-754 bit
// patterns (std::bit_cast), so a chunk pushed over the wire classifies
// bit-identically to one passed in memory.
//
// Framing distinguishes two failure shapes, because a TCP stream
// delivers frames split at arbitrary byte boundaries:
//   - a *partial* trailing frame is a normal state — FrameReader::next()
//     returns nullopt with needs_more() set, and the caller retains the
//     tail until more bytes arrive;
//   - a *corrupt* frame (bad type, short payload, absurd length) throws
//     util::DataError — corrupt input must never crash the service
//     (same hardening contract as ml::load_model).
// encode() enforces the same limits it expects of peers: a message
// whose frame would exceed kMaxPayload throws before any bytes are
// emitted, so we can never produce a frame our own decoder rejects.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/streaming.h"
#include "obs/metrics.h"

namespace emoleak::serve {

/// Hard ceiling on one frame's payload. A frame longer than this is
/// corrupt, not big: the largest legitimate payload is a chunk push,
/// and chunks are seconds of accelerometer data, not gigabytes. The
/// decoder checks it before any allocation; the encoder refuses to
/// emit a frame above it.
inline constexpr std::size_t kMaxPayload = std::size_t{64} << 20;  // 64 MiB

/// Frame type bytes. Every value is pinned, so peers from any revision
/// agree on the types they share. Any other byte — 0, the retired 4
/// and 5 (a stats request/reply pair), the retired 6 (a model swap; a
/// registry version is activated in process), or past 12 — is an
/// unknown type: a corrupt frame.
enum class MsgType : std::uint8_t {
  kChunkPush = 1,       ///< client -> service: samples for one stream
  kStreamFinish = 2,    ///< client -> service: end-of-stream flush
  kEvent = 3,           ///< service -> client: one classified speech region
  kAck = 7,             ///< service -> client: request status
  kStreamStart = 8,     ///< client -> service: open a stream, optionally
                        ///< binding it to a named model
  kMetricsRequest = 9,  ///< client -> service: pull the metrics registry
                        ///< (an older peer decodes this type as corrupt
                        ///< and answers kError, which is the designed
                        ///< downgrade signal)
  kMetricsReply = 10,   ///< service -> client: full registry snapshot
  kTraceRequest = 11,   ///< client -> service: pull the trace rings
  kTraceReply = 12,     ///< service -> client: Chrome trace JSON + drops
};

enum class Status : std::uint8_t {
  kOk = 0,
  kOverloaded,   ///< shard queue full — retry after a drain
  kNoCapacity,   ///< session table full
  kError,        ///< malformed request / unknown model version
};

struct ChunkPushMsg {
  std::uint64_t stream_id = 0;
  std::vector<double> samples;
};

/// Opens a stream explicitly, optionally naming the registry model the
/// stream should classify against (empty = the registry default, which
/// is also what a bare ChunkPushMsg with a fresh stream_id binds to —
/// StreamStart is only *required* for non-default tasks).
///
/// Old-encoding compatibility: the v1 payload was `u64 stream_id` with
/// no name field. The decoder accepts that short form (name absent ->
/// default model), and encoding an empty name *produces* the short
/// form, so v1 and v2 peers interoperate byte-for-byte on default-task
/// streams.
struct StreamStartMsg {
  std::uint64_t stream_id = 0;
  std::string model_name;  ///< empty = registry default
};

struct StreamFinishMsg {
  std::uint64_t stream_id = 0;
};

struct EventMsg {
  std::uint64_t stream_id = 0;
  core::EmotionEvent event;
};

struct AckMsg {
  Status status = Status::kOk;
  /// For kOverloaded and kNoCapacity: how long the client should back
  /// off before retrying the rejected request. The wire-level face of the
  /// reject-on-overload admission policy — the service sheds load and
  /// tells the peer when to come back instead of queueing unboundedly.
  /// 0 for every other status.
  std::uint32_t retry_after_ms = 0;
};

/// Remote telemetry pull, the service's one telemetry surface. The
/// reply carries a full obs::RegistrySnapshot — every counter, gauge,
/// and non-empty histogram bucket — so a scraper needs no prior
/// knowledge of which metrics exist. Taking the snapshot is lock-free
/// on the recording side, so a scrape never perturbs the serving path.
struct MetricsRequestMsg {};

struct MetricsReplyMsg {
  obs::RegistrySnapshot snapshot;
};

/// Remote trace pull. The reply ships the ready-made Chrome
/// trace_event JSON (obs::trace_json()) rather than re-encoding spans
/// field-by-field: the JSON is the stable export format, and the
/// ring snapshot it represents is already race-safe by construction.
struct TraceRequestMsg {};

struct TraceReplyMsg {
  std::string trace_json;
  std::uint64_t dropped_spans = 0;  ///< spans lost to ring wrap
};

using Message = std::variant<ChunkPushMsg, StreamFinishMsg, EventMsg,
                             AckMsg, StreamStartMsg, MetricsRequestMsg,
                             MetricsReplyMsg, TraceRequestMsg, TraceReplyMsg>;

/// Appends one length-prefixed frame for `msg` to `out`. Throws
/// util::DataError — leaving `out` untouched — when the message cannot
/// be framed within kMaxPayload (e.g. a chunk whose sample count would
/// not survive the u32 length fields); the peer's decoder would reject
/// such a frame, so it must never reach the wire.
void encode(std::string& out, const Message& msg);

/// Convenience: a single message as its own buffer.
[[nodiscard]] std::string encode_one(const Message& msg);

/// Iterates the frames of a byte buffer, resumably: frames may arrive
/// split at arbitrary byte boundaries (a TCP stream), so running out of
/// bytes mid-frame is a normal state, not an error. Throws
/// util::DataError only on genuinely corrupt frames (bad type, short
/// payload relative to its own length field, absurd length).
class FrameReader {
 public:
  explicit FrameReader(std::string_view bytes) : bytes_{bytes} {}
  /// Deleted: a temporary's bytes would dangle while frames are read.
  explicit FrameReader(std::string&& bytes) = delete;

  /// Next decoded message, or nullopt when no complete frame remains.
  /// nullopt with needs_more() unset is a clean end-of-buffer; nullopt
  /// with needs_more() set means a partial trailing frame starts at
  /// offset() — the transport should retain bytes_[offset()..] and
  /// retry once at least missing_bytes() more have arrived.
  [[nodiscard]] std::optional<Message> next();

  /// Bytes consumed so far (whole frames only — never advances into a
  /// partial frame).
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

  /// True after next() returned nullopt because the trailing frame is
  /// incomplete (as opposed to a clean end-of-buffer).
  [[nodiscard]] bool needs_more() const noexcept { return needed_ > 0; }

  /// Lower bound on the bytes still missing from the partial trailing
  /// frame (exact once the 4-byte length prefix is complete). 0 when
  /// not mid-frame.
  [[nodiscard]] std::size_t missing_bytes() const noexcept { return needed_; }

 private:
  std::string_view bytes_;
  std::size_t offset_ = 0;
  std::size_t needed_ = 0;
};

}  // namespace emoleak::serve
