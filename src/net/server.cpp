#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "obs/obs.h"
#include "util/error.h"

namespace emoleak::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;  ///< bytes per read() call
/// Pause reading from a connection whose un-flushed replies exceed
/// this; resume below half. Caps per-connection memory against a peer
/// that writes but never reads.
constexpr std::size_t kMaxWriteBuffer = 8u << 20;
constexpr std::chrono::milliseconds kShutdownFlush{1000};  ///< stop() budget

/// One overloaded ack, pre-encoded: what a peer beyond max_connections
/// receives (best-effort) before its socket closes.
std::string reject_ack() {
  return serve::encode_one(
      serve::AckMsg{serve::Status::kOverloaded, serve::kRetryAfterMs});
}

}  // namespace

void NetServerConfig::validate() const {
  if (max_connections == 0) {
    throw util::ConfigError{"net: max_connections must be >= 1"};
  }
  if (drain_interval_ms == 0) {
    throw util::ConfigError{"net: drain_interval_ms must be >= 1"};
  }
}

NetServer::Counters::Counters(obs::Registry& registry)
    : connections_accepted{registry.counter("net.connections_accepted")},
      connections_active{registry.gauge("net.connections_active")},
      connections_rejected{registry.counter("net.connections_rejected")},
      connections_closed_corrupt{
          registry.counter("net.connections_closed_corrupt")},
      disconnects{registry.counter("net.disconnects")},
      frames_in{registry.counter("net.frames_in")},
      partial_reads{registry.counter("net.partial_reads")},
      overload_acks{registry.counter("net.overload_acks")},
      events_routed{registry.counter("net.events_routed")},
      events_orphaned{registry.counter("net.events_orphaned")},
      bytes_in{registry.counter("net.bytes_in")},
      bytes_out{registry.counter("net.bytes_out")},
      drain_ticks{registry.counter("net.drain_ticks")},
      reads_paused{registry.counter("net.reads_paused")},
      reads_resumed{registry.counter("net.reads_resumed")},
      loop_stall_ns{registry.histogram("net.loop_stall_ns")} {}

NetServer::NetServer(NetServerConfig config, serve::ServeService& service)
    : config_{std::move(config)},
      service_{service},
      stats_{service.metrics_registry()} {
  config_.validate();
  listener_ = make_listener(config_.port);
  port_ = listener_.port;
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  if (running_.load(std::memory_order_acquire) || loop_.joinable()) {
    throw NetError{"net: server already started"};
  }
  if (!listener_.fd.valid()) {
    throw NetError{"net: server cannot restart after stop()"};
  }

  epoll_ = Fd{::epoll_create1(EPOLL_CLOEXEC)};
  if (!epoll_.valid()) throw errno_error("net: epoll_create1");
  wake_ = Fd{::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)};
  if (!wake_.valid()) throw errno_error("net: eventfd");
  timer_ = Fd{::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK)};
  if (!timer_.valid()) throw errno_error("net: timerfd_create");

  const auto arm = [this](int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw errno_error("net: epoll_ctl(ADD)");
    }
  };
  arm(listener_.fd.get(), EPOLLIN);
  arm(wake_.get(), EPOLLIN);
  arm(timer_.get(), EPOLLIN);

  itimerspec spec{};
  spec.it_interval.tv_sec = config_.drain_interval_ms / 1000;
  spec.it_interval.tv_nsec =
      static_cast<long>(config_.drain_interval_ms % 1000) * 1000000L;
  spec.it_value = spec.it_interval;
  if (::timerfd_settime(timer_.get(), 0, &spec, nullptr) != 0) {
    throw errno_error("net: timerfd_settime");
  }

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread{[this] { run(); }};
}

void NetServer::stop() {
  if (!loop_.joinable()) return;
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)::write(wake_.get(), &one, sizeof one);
  loop_.join();
  // Only after the join: the loop thread is gone, so closing the fds
  // it polled cannot race its epoll_wait (or our own wake write).
  timer_.reset();
  wake_.reset();
  epoll_.reset();
  running_.store(false, std::memory_order_release);
}

void NetServer::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure: shut down below
    }
    // Everything below runs on this one thread, drains included: while
    // it does, no connection is read, acked or scraped.
    const std::uint64_t woke_ns = obs::trace_now_ns();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_.get()) {
        std::uint64_t drained = 0;
        (void)::read(wake_.get(), &drained, sizeof drained);
        continue;  // stop flag re-checked by the while condition
      }
      if (fd == listener_.fd.get()) {
        accept_ready();
        continue;
      }
      if (fd == timer_.get()) {
        std::uint64_t expirations = 0;
        (void)::read(timer_.get(), &expirations, sizeof expirations);
        drain_and_route();
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(conn, /*peer_gone=*/true);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        connection_writable(conn);
        // connection_writable may close; re-find before reading.
        if (connections_.find(fd) == connections_.end()) continue;
      }
      if ((events[i].events & EPOLLIN) != 0) connection_readable(conn);
    }
    // Drain on arrival: one drain for everything this wakeup admitted,
    // so requests that arrived together still batch across sessions.
    if (drain_due_) drain_and_route();
    stats_.loop_stall_ns.record(obs::trace_now_ns() - woke_ns);
  }
  graceful_shutdown();
}

void NetServer::accept_ready() {
  for (;;) {
    Fd peer{::accept4(listener_.fd.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC)};
    if (!peer.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure: retry on the next EPOLLIN
    }
    if (connections_.size() >= config_.max_connections) {
      // Admission control at the transport layer, same shape as the
      // shard queues: one overloaded ack (best-effort), then close.
      const std::string ack = reject_ack();
      (void)::send(peer.get(), ack.data(), ack.size(), MSG_NOSIGNAL);
      stats_.connections_rejected.add(1);
      continue;  // Fd destructor closes
    }
    set_nodelay(peer.get());
    auto conn = std::make_unique<Connection>();
    const int fd = peer.get();
    conn->fd = std::move(peer);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // conn destructor closes the socket
    }
    conn->armed = EPOLLIN;
    connections_.emplace(fd, std::move(conn));
    stats_.connections_accepted.add(1);
    stats_.connections_active.add(1);
  }
}

void NetServer::connection_readable(Connection& conn) {
  // Bounded reads per wake-up: level-triggered epoll re-notifies, so a
  // firehose peer cannot starve the drain or other connections.
  OBS_SPAN("net.read");
  for (int round = 0; round < 4; ++round) {
    const std::size_t old_size = conn.inbuf.size();
    conn.inbuf.resize(old_size + kReadChunk);
    const ssize_t got =
        ::read(conn.fd.get(), conn.inbuf.data() + old_size, kReadChunk);
    if (got > 0) {
      conn.inbuf.resize(old_size + static_cast<std::size_t>(got));
      stats_.bytes_in.add(static_cast<std::uint64_t>(got));
      if (static_cast<std::size_t>(got) < kReadChunk) break;
      continue;
    }
    conn.inbuf.resize(old_size);
    if (got == 0) {  // orderly EOF: flush the peer's sessions
      close_connection(conn, /*peer_gone=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(conn, /*peer_gone=*/true);  // ECONNRESET and kin
    return;
  }
  dispatch(conn);
}

void NetServer::dispatch(Connection& conn) {
  if (conn.inbuf.empty()) return;
  OBS_SPAN("net.dispatch");
  serve::HandleResult result = service_.handle_frames(conn.inbuf);
  stats_.frames_in.add(result.frames);
  stats_.overload_acks.add(result.overloaded);
  drain_due_ = drain_due_ || !result.streams_touched.empty();

  // Connection -> stream affinity: events for a stream route back to
  // the last connection that wrote it. A later frame for the same id
  // clears the finishing mark, keeping the restarted stream owned.
  auto finish = result.finishes_admitted.begin();
  for (std::size_t i = 0; i < result.streams_touched.size(); ++i) {
    const std::uint64_t id = result.streams_touched[i];
    const bool finishing =
        finish != result.finishes_admitted.end() && *finish == i;
    if (finishing) {
      ++finish;
      finishing_.push_back(id);
    }
    stream_owner_[id] = Owner{&conn, finishing};
  }

  conn.outbuf.append(result.reply);
  conn.inbuf.erase(0, result.consumed);
  if (result.corrupt) {
    // The frame layer found garbage: answer (kError ack already in the
    // reply), stop reading, and close once the reply is flushed. Only
    // this connection dies — everyone else's batch is untouched.
    conn.closing = true;
    conn.inbuf.clear();
  } else if (!conn.inbuf.empty()) {
    stats_.partial_reads.add(1);
  }
  flush(conn);
}

void NetServer::connection_writable(Connection& conn) { flush(conn); }

void NetServer::flush(Connection& conn) {
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t sent =
        ::send(conn.fd.get(), conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out_off += static_cast<std::size_t>(sent);
      stats_.bytes_out.add(static_cast<std::uint64_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    close_connection(conn, /*peer_gone=*/true);  // EPIPE/ECONNRESET
    return;
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
    if (conn.closing) {
      close_connection(conn, /*peer_gone=*/false);
      return;
    }
  }
  update_interest(conn);
}

void NetServer::update_interest(Connection& conn) {
  const std::size_t backlog = conn.outbuf.size() - conn.out_off;
  // Write-buffer backpressure: a peer that writes requests but never
  // reads replies gets paused, not buffered without bound.
  if (!conn.paused && backlog > kMaxWriteBuffer) {
    conn.paused = true;
    stats_.reads_paused.add(1);
  } else if (conn.paused && backlog < kMaxWriteBuffer / 2) {
    conn.paused = false;
    stats_.reads_resumed.add(1);
  }
  const std::uint32_t want = ((!conn.closing && !conn.paused) ? EPOLLIN : 0u) |
                             (backlog > 0 ? EPOLLOUT : 0u);
  if (want == conn.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd.get();
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
  conn.armed = want;
}

void NetServer::drain_and_route() {
  OBS_SPAN("net.tick");
  stats_.drain_ticks.add(1);
  drain_due_ = false;
  // Finishes deferred by overload (disconnect storms) retry every drain
  // until the shard queue admits them — bounded by drain progress, not
  // by extra queueing. A stream adopted by a new connection in the
  // meantime is no longer ours to finish.
  if (!pending_finishes_.empty()) {
    std::vector<std::uint64_t> still_pending;
    for (const std::uint64_t id : pending_finishes_) {
      if (stream_owner_.find(id) != stream_owner_.end()) continue;
      if (service_.finish_stream(id) == serve::Status::kOverloaded) {
        still_pending.push_back(id);
      }
    }
    pending_finishes_ = std::move(still_pending);
  }
  (void)service_.drain();
  route_events();
  // That drain processed every finish admitted before it, and their
  // final events are routed: the streams end here.
  for (const std::uint64_t id : finishing_) {
    const auto it = stream_owner_.find(id);
    if (it != stream_owner_.end() && it->second.finishing) {
      stream_owner_.erase(it);
    }
  }
  finishing_.clear();
}

void NetServer::route_events() {
  for (serve::EventMsg& event : service_.take_events()) {
    const auto it = stream_owner_.find(event.stream_id);
    if (it == stream_owner_.end()) {
      // Owner disconnected between push and drain: the session was
      // flushed, but nobody is left to tell.
      stats_.events_orphaned.add(1);
      continue;
    }
    Connection& conn = *it->second.conn;
    serve::encode(conn.outbuf, event);
    stats_.events_routed.add(1);
  }
  // Flush whoever got events (and anyone EPOLLOUT hasn't caught yet).
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = *it->second;
    ++it;  // flush may erase this connection
    if (conn.out_off < conn.outbuf.size()) flush(conn);
  }
}

void NetServer::close_connection(Connection& conn, bool peer_gone) {
  if (peer_gone) {
    stats_.disconnects.add(1);
  } else if (conn.closing) {
    stats_.connections_closed_corrupt.add(1);
  }
  // A mid-stream disconnect must not leak sessions: finish every
  // stream this peer owned so its open region flushes and its slot
  // frees at the next drain. A stream already finishing needs no
  // second finish.
  for (auto it = stream_owner_.begin(); it != stream_owner_.end();) {
    if (it->second.conn != &conn) {
      ++it;
      continue;
    }
    const std::uint64_t id = it->first;
    const bool finishing = it->second.finishing;
    it = stream_owner_.erase(it);
    if (finishing) continue;
    drain_due_ = true;
    if (service_.finish_stream(id) == serve::Status::kOverloaded) {
      pending_finishes_.push_back(id);
    }
  }
  stats_.connections_active.add(-1);
  connections_.erase(conn.fd.get());  // destroys conn; closing the fd
                                      // also deregisters it from epoll
}

void NetServer::graceful_shutdown() {
  // 1. Stop accepting.
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.fd.get(), nullptr);
  listener_.fd.reset();

  // 2. Flush every open session: finish all live streams, then drain
  //    until the batcher is dry (retrying finishes the shard queues
  //    rejected), routing events as they complete. Ownership stays
  //    intact so the final events still reach their connections.
  for (const auto& [id, owner] : stream_owner_) pending_finishes_.push_back(id);
  for (;;) {
    std::vector<std::uint64_t> still_pending;
    for (const std::uint64_t id : pending_finishes_) {
      if (service_.finish_stream(id) == serve::Status::kOverloaded) {
        still_pending.push_back(id);
      }
    }
    pending_finishes_ = std::move(still_pending);
    const std::size_t processed = service_.drain();
    route_events();
    if (pending_finishes_.empty() && processed == 0) break;
  }

  // 3. Drain the write buffers within the flush budget, driven by
  //    EPOLLOUT — peers reading slowly get kShutdownFlush, not forever.
  const auto deadline = std::chrono::steady_clock::now() + kShutdownFlush;
  for (;;) {
    bool backlog = false;
    for (const auto& [fd, conn] : connections_) {
      backlog = backlog || conn->out_off < conn->outbuf.size();
    }
    if (!backlog || connections_.empty()) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    const int n = ::epoll_wait(epoll_.get(), events, kMaxEvents,
                               static_cast<int>(std::max<long>(1, wait.count())));
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const auto it = connections_.find(events[i].data.fd);
      if (it == connections_.end()) continue;
      if ((events[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) != 0) {
        flush(*it->second);
      }
    }
  }

  // 4. Close every connection. The epoll/wake/timer fds stay open:
  //    stop() may still be writing the wake eventfd from another
  //    thread, so they are closed there, after the join.
  connections_.clear();
  stream_owner_.clear();
  pending_finishes_.clear();
}

}  // namespace emoleak::net
