// ServeService — the multi-session inference front end.
//
// The deployed shape of the paper's attack (§III-A): exfiltrated
// accelerometer streams from many devices are classified centrally
// against pre-trained models. ServeService wires the pieces together:
//
//   push/finish  -> RequestBatcher (bounded shard queues, admission
//                   control: full queue => Status::kOverloaded, a new
//                   stream past max_sessions => Status::kNoCapacity)
//   drain        -> shards fan out over util::ThreadPool; each shard
//                   feeds its streams' StreamingAttack sequentially,
//                   so per-stream event sequences are bit-identical to
//                   a standalone StreamingAttack at any thread count
//   SessionManager  bounded session table; a session lives from its
//                   stream's first request to the drain that finishes it
//   ModelRegistry   versioned models, atomic hot-swap (add/activate in
//                   process); sessions pick up a swap lazily at their
//                   next processed request
//   counters     -> serve.* metrics in a service-owned obs::Registry,
//                   the one telemetry surface (metrics_snapshot() in
//                   process, kMetricsRequest over the wire)
//
// The wire face (handle / poll_events) speaks serve/protocol.h frames;
// tests and serve_demo use it as an in-process transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/batcher.h"
#include "serve/counters.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/parallel.h"

namespace emoleak::serve {

/// Back-off advertised in overload acks (AckMsg::retry_after_ms) and in
/// the transport's connection-cap reject. The transport drains at the
/// end of the wakeup that filled the queue and at least every backstop
/// tick, so a retry this much later finds queue room.
inline constexpr std::uint32_t kRetryAfterMs = 1;

struct ServeConfig {
  SessionConfig session;
  BatcherConfig batcher;
  /// Thread budget for drain cycles (0 = all cores, 1 = serial).
  util::Parallelism parallelism;
  void validate() const;
};

/// Outcome of feeding a byte range through the wire face. `reply`
/// holds the response frames for every frame decoded; `consumed` is the
/// bytes of whole frames processed (a partial trailing frame is left
/// for the transport to retain and retry — see FrameReader). A corrupt
/// frame does not abort the batch: replies already produced for earlier
/// valid frames survive, the offender is answered with a kError ack,
/// `corrupt` is set, and the transport should close that connection
/// after flushing.
struct HandleResult {
  std::string reply;
  std::size_t consumed = 0;
  std::size_t frames = 0;      ///< complete frames decoded
  std::size_t overloaded = 0;  ///< frames answered with kOverloaded
  bool corrupt = false;        ///< a corrupt frame ended the batch
  /// Stream ids named by push/start/finish frames in this batch, in
  /// frame order (duplicates possible). The transport uses these for
  /// connection -> stream affinity: events route back to the last
  /// connection that wrote the stream.
  std::vector<std::uint64_t> streams_touched;
  /// Indices into streams_touched of the finish frames that were
  /// admitted, ascending. A stream whose last touch is one of these has
  /// ended once the next drain has run.
  std::vector<std::size_t> finishes_admitted;
};

class ServeService {
 public:
  ServeService(ServeConfig config, std::shared_ptr<ModelRegistry> registry);

  // ---- typed API -----------------------------------------------------
  /// Enqueues a chunk for `stream_id`. kOverloaded when the stream's
  /// shard queue is full — the caller should drain (or back off) and
  /// retry; nothing was enqueued. kNoCapacity when the chunk would open
  /// a new session while max_sessions streams are admitted and not yet
  /// released (a finished stream holds its slot until the drain that
  /// processes its finish ends); nothing was enqueued, retry after a
  /// drain. kError, also with nothing enqueued, when a sample is NaN or
  /// infinite.
  Status push(std::uint64_t stream_id, std::vector<double> samples);

  /// Enqueues an end-of-stream flush (emits the final open region, if
  /// any, and frees the session's slot).
  Status finish_stream(std::uint64_t stream_id);

  /// Opens (or rebinds) a stream against a named registry model; empty
  /// name = the registry default. kError when the name is unknown —
  /// checked before enqueueing, so a bad name never consumes queue
  /// room. kNoCapacity as for push(). The start travels through the
  /// stream's shard FIFO, so it is applied before any chunk submitted
  /// after it (mixed-task determinism). Optional for default-task
  /// streams: a bare push with a fresh stream id still auto-binds to
  /// the default model.
  Status start_stream(std::uint64_t stream_id, std::string model_name);

  /// Runs one batch cycle: processes every queued request (per-stream
  /// sequential, streams parallel), batch-classifies the deferred
  /// windows, then frees the sessions finished in it. Returns requests
  /// processed. Thread-safe; concurrent callers are serialized.
  std::size_t drain();

  /// Events completed since the last call, ordered by (stream id,
  /// emission order).
  [[nodiscard]] std::vector<EventMsg> take_events();

  // ---- wire API --------------------------------------------------------
  /// Decodes each complete frame in `bytes`, applies it, and returns
  /// the reply frames (Ack per push/start/finish, MetricsReply or
  /// TraceReply per telemetry request) plus framing metadata. Never
  /// throws on bad input: a corrupt frame yields a kError ack and stops
  /// the batch with `corrupt` set, preserving the replies of earlier
  /// valid frames; a partial trailing frame is simply not consumed. This is the entry
  /// point the TCP transport (net::NetServer) feeds connection buffers
  /// through.
  [[nodiscard]] HandleResult handle_frames(std::string_view bytes);

  /// In-process transport: handle_frames over a whole buffer. A partial
  /// trailing frame — impossible when the caller hands over complete
  /// buffers — is answered with a kError ack like any corrupt frame.
  [[nodiscard]] std::string handle(std::string_view bytes);

  /// take_events() as encoded Event frames.
  [[nodiscard]] std::string poll_events();

  /// The registry behind this service's metrics — serve.* counters and
  /// histograms, plus whatever the transport (net.*) registers into it.
  /// kMetricsRequest serves a snapshot of this merged with the
  /// process-wide obs::Registry::instance() (kernel/cache/pool tallies).
  [[nodiscard]] obs::Registry& metrics_registry() noexcept {
    return counters_.registry();
  }

  /// The snapshot a kMetricsRequest answers: this service's registry
  /// merged with the process-wide one (service names win collisions).
  [[nodiscard]] obs::RegistrySnapshot metrics_snapshot() const;

 private:
  /// The one admission path behind push/finish_stream/start_stream:
  /// stamps push and finish requests with an arrival time and a flow id
  /// (starts carry neither), checks session capacity, submits to the
  /// stream's shard, and counts serve.accepted, serve.rejected_capacity
  /// or serve.rejected_overload.
  Status admit(PushRequest request);
  void process(PushRequest& request);
  /// Batch-classifies every deferred window collected this drain:
  /// groups by (captured model, input width), one predict_proba_batch
  /// per group, results scattered back to each session's outbox by
  /// slot. Runs under drain_mutex_ after the shard barrier, so no shard
  /// task is touching any session.
  void run_batched_classify();
  /// (Re)binds a session to its model_name: resolves the registry,
  /// swings the classifier + feature route, caches the per-task counter
  /// bundle, and counts a stream for the task the session landed on.
  void bind_session(SessionManager::Session& session);

  ServeConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  ServeCounters counters_;  ///< before sessions_, which records into it
  SessionManager sessions_;
  RequestBatcher batcher_;
  std::mutex drain_mutex_;          ///< one drain cycle at a time
  /// Admitted sessions of one stream id: how many are not yet released
  /// (a finished one stays until the end of the drain that processes
  /// its finish) and whether the newest is open (no finish admitted).
  struct Admission {
    std::size_t sessions = 0;
    bool open = false;
  };
  /// Guards the admission ledger below. The typed API may be called
  /// from several producer threads; the TCP transport admits from its
  /// loop thread only, so there the lock is uncontended.
  std::mutex admission_mutex_;
  std::unordered_map<std::uint64_t, Admission> admitted_;
  /// Sum of admitted_[*].sessions. Every session in the table or
  /// awaiting release is counted here, so admitting only while this is
  /// below max_sessions keeps SessionManager::acquire within the cap.
  std::size_t admitted_sessions_ = 0;
  /// Flow-id mint for causal tracing: each admitted push/finish
  /// gets a unique nonzero id, and the events its windows produce
  /// inherit it — linking one request's spans across the event-loop
  /// thread, pool workers, and the drain in the exported trace.
  std::atomic<std::uint64_t> flow_seq_{0};
};

}  // namespace emoleak::serve
