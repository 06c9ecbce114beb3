// Epoll TCP front end for emoleak::serve — the step from "serving
// library" to "service". The deployed attack shape (paper §III-A) is a
// central collector classifying exfiltrated accelerometer streams from
// many devices; NetServer is that collector's transport:
//
//   accept loop     non-blocking listener on 127.0.0.1, capped at
//                   max_connections (excess peers get one overloaded
//                   ack, then close — backpressure, not backlog)
//   per connection  read buffer with incremental frame reassembly (the
//                   resumable FrameReader: frames split at arbitrary
//                   TCP boundaries are retained, corrupt frames close
//                   only the offending connection) and a write buffer
//                   flushed by EPOLLOUT; a connection whose peer stops
//                   reading is paused (EPOLLIN off) above 8 MiB of
//                   un-flushed replies instead of buffering unboundedly
//   affinity        stream id -> connection, recorded from the frames a
//                   connection writes; drained events route back to the
//                   last writer. Ownership ends after the drain that
//                   processed the stream's admitted finish has routed
//                   its events. A mid-stream disconnect finishes the
//                   peer's streams so their sessions flush and free
//                   their slots instead of leaking
//   drain           one ServeService::drain() (the sharded batcher —
//                   per-stream sequential, shards parallel,
//                   bit-identical events), then route the completed
//                   events. It runs at the end of every epoll wakeup
//                   that admitted a push/start/finish or closed a
//                   connection owning streams, so requests arriving in
//                   one wakeup share a drain and nothing waits for a
//                   timer. A timerfd every drain_interval_ms is the
//                   backstop cadence: it retries overload-deferred
//                   finishes
//   backpressure    ServeService maps a full shard queue to
//                   Status::kOverloaded; the ack carries
//                   serve::kRetryAfterMs so clients back off instead of
//                   the server queueing
//   shutdown        stop() finishes every live stream, drains until the
//                   batcher is dry, routes the final events, flushes
//                   write buffers within a 1 s budget, then closes
//
// Single event-loop thread; drains fan out internally over the service
// thread pool. start()/stop() are safe from any thread. Transport
// telemetry is the net.* metrics in the service's registry, so one
// ServeService::metrics_snapshot() (or kMetricsRequest scrape) covers
// transport and service.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace emoleak::net {

struct NetServerConfig {
  std::uint16_t port = 0;        ///< 0 = ephemeral; read back via port()
  std::size_t max_connections = 1024;
  /// Backstop drain cadence (timerfd). Admitted requests drain at the
  /// end of the wakeup that read them; the timer retries finishes that
  /// a full shard queue deferred.
  std::uint32_t drain_interval_ms = 1;

  void validate() const;
};

class NetServer {
 public:
  /// Binds the listener immediately (so port() is valid before
  /// start()); the event loop runs only between start() and stop().
  /// `service` must outlive the server.
  NetServer(NetServerConfig config, serve::ServeService& service);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Spawns the event-loop thread. Throws NetError if already running.
  void start();

  /// Graceful shutdown: flush open sessions, deliver pending events,
  /// drain write buffers (bounded by a 1 s budget), close
  /// everything, join the loop thread. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    Fd fd;
    std::string inbuf;            ///< unparsed bytes (partial frame tail)
    std::string outbuf;           ///< un-flushed reply/event frames
    std::size_t out_off = 0;      ///< flushed prefix of outbuf
    std::uint32_t armed = 0;      ///< epoll event mask currently registered
    bool paused = false;          ///< EPOLLIN off (write-buffer cap)
    bool closing = false;         ///< corrupt peer: close once flushed
  };

  void run();
  void accept_ready();
  void connection_readable(Connection& conn);
  void connection_writable(Connection& conn);
  void dispatch(Connection& conn);
  void flush(Connection& conn);
  void update_interest(Connection& conn);
  void drain_and_route();
  void route_events();
  void close_connection(Connection& conn, bool peer_gone);
  void graceful_shutdown();

  NetServerConfig config_;
  serve::ServeService& service_;
  Listener listener_;
  std::uint16_t port_ = 0;

  Fd epoll_;
  Fd wake_;   ///< eventfd: stop() -> loop wake-up
  Fd timer_;  ///< timerfd: backstop drain cadence

  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Event-loop-thread state (no locking: only run() touches these).
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  struct Owner {
    Connection* conn = nullptr;  ///< last connection that wrote the stream
    bool finishing = false;      ///< its last frame was an admitted finish
  };
  std::unordered_map<std::uint64_t, Owner> stream_owner_;
  /// Streams marked finishing since the last drain; released once that
  /// drain has routed their events, unless touched again meanwhile.
  std::vector<std::uint64_t> finishing_;
  std::vector<std::uint64_t> pending_finishes_;  ///< retried each drain
  /// This wakeup admitted a stream request or finished a closed
  /// connection's streams: drain once its handlers are done.
  bool drain_due_ = false;

  // net.* metrics in the service's registry, written by the loop
  // thread. The references resolve once at construction; recording
  // stays a relaxed fetch_add.
  struct Counters {
    obs::Counter& connections_accepted;
    obs::Gauge& connections_active;
    obs::Counter& connections_rejected;
    obs::Counter& connections_closed_corrupt;
    obs::Counter& disconnects;
    obs::Counter& frames_in;
    obs::Counter& partial_reads;
    obs::Counter& overload_acks;
    obs::Counter& events_routed;
    obs::Counter& events_orphaned;
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
    obs::Counter& drain_ticks;  ///< every drain, timer or arrival
    obs::Counter& reads_paused;
    obs::Counter& reads_resumed;
    /// Handler time per epoll wakeup, including its drain.
    obs::Histogram& loop_stall_ns;
    explicit Counters(obs::Registry& registry);
  } stats_;
};

}  // namespace emoleak::net
