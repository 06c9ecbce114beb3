// Load generator for the emoleak::net TCP transport.
//
// Spins up ServeService + NetServer in-process on an ephemeral loopback
// port, then drives hundreds of concurrent device streams at it from a
// single-threaded epoll client engine:
//
//   arrivals   open-loop: connection i starts at t0 + i/rate, on a
//              clock, independent of how fast earlier connections
//              complete (the arrival process a fleet of exfiltrating
//              devices actually presents)
//   cadence    each connection pushes `--chunk` samples every
//              `--cadence-ms` (0 = ack-paced), retrying overloaded
//              and no-capacity requests after the server's advertised
//              retry_after_ms
//   parity     every connection streams one of a few synthetic traces;
//              the events it gets back must be bit-identical to a
//              standalone core::StreamingAttack fed the same chunks,
//              and every expected event must arrive (zero drops)
//
// Progress is sampled into a trajectory (connections done, events/sec,
// drain p99 from the service's metrics snapshot) and written with the
// summary as JSON for scripts/bench_compare.py --serve.
//
//   loadgen [--conns N] [--rate CONNS_PER_S] [--chunk N] [--cadence-ms N]
//           [--trace-len N] [--threads N] [--sample-ms N] [--json PATH]
//           [--model NAME[,NAME...]] [--smoke]
//
// --model registers one model per name and round-robins connections
// over them (connection i streams against models[i % N], announced
// with a StreamStart frame before its first chunk) — mixed-task
// traffic through one registry. Each connection's parity reference is
// the standalone attack run with *its* model, so cross-binding any
// stream to the wrong task fails the bit-identical check.
//
// Exits non-zero on any dropped frame, parity mismatch, unexpected
// close, or timeout — the ctest smoke target (loadgen --smoke) rides on
// that.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/streaming.h"
#include "ml/dataset.h"
#include "ml/logistic.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/rng.h"

namespace {

using namespace emoleak;
using Clock = std::chrono::steady_clock;
using serve::Status;

constexpr double kRate = 420.0;
constexpr std::size_t kTraceVariants = 4;

struct Options {
  std::size_t conns = 120;
  double rate = 300.0;        // connection arrivals per second
  std::size_t chunk = 512;
  std::uint32_t cadence_ms = 0;
  std::size_t trace_len = 10000;
  std::size_t threads = 1;
  std::uint32_t sample_ms = 250;
  std::string json_path;
  double timeout_s = 120.0;
  /// Registry model names to round-robin connections over; empty =
  /// single default model, no StreamStart frames (the legacy shape).
  std::vector<std::string> models;
};

std::vector<double> make_trace(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> x(n, 9.81);
  for (std::size_t i = 0; i < n; ++i) x[i] += 0.003 * rng.normal();
  // Bursts sit past the detector's noise-floor warm-up (10 s at 420 Hz)
  // as fractions of the trace, so any --trace-len long enough to detect
  // anything yields events.
  const std::pair<double, double> bursts[] = {
      {0.50, 0.56}, {0.68, 0.74}, {0.88, 0.94}};
  for (const auto& [lo_f, hi_f] : bursts) {
    const auto lo = static_cast<std::size_t>(lo_f * static_cast<double>(n));
    const auto hi = static_cast<std::size_t>(hi_f * static_cast<double>(n));
    for (std::size_t i = lo; i < hi && i < n; ++i) {
      x[i] += 0.1 * std::sin(2.0 * std::numbers::pi * 100.0 *
                             static_cast<double>(i) / kRate);
    }
  }
  return x;
}

std::shared_ptr<const ml::Classifier> make_model(int classes,
                                                 std::uint64_t seed) {
  util::Rng rng{seed};
  ml::Dataset d;
  d.class_count = classes;
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < 12; ++i) {
      std::vector<double> row(24);
      for (double& v : row) v = rng.normal() + 1.5 * c;
      d.x.push_back(std::move(row));
      d.y.push_back(c);
    }
  }
  auto model = std::make_shared<ml::LogisticRegression>();
  model->fit(d);
  return model;
}

core::StreamingConfig stream_config() {
  core::StreamingConfig cfg;
  cfg.detector = core::tabletop_detector_config();
  return cfg;
}

std::vector<core::EmotionEvent> standalone_events(
    const std::vector<double>& trace, std::size_t chunk,
    std::shared_ptr<const ml::Classifier> model) {
  core::StreamingAttack attack{stream_config(), kRate, std::move(model)};
  std::vector<core::EmotionEvent> events;
  for (std::size_t i = 0; i < trace.size(); i += chunk) {
    const std::size_t hi = std::min(i + chunk, trace.size());
    auto out = attack.push(std::span<const double>{trace.data() + i, hi - i});
    events.insert(events.end(), out.begin(), out.end());
  }
  if (auto last = attack.finish()) events.push_back(*last);
  return events;
}

bool same_events(const std::vector<core::EmotionEvent>& a,
                 const std::vector<core::EmotionEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start_sample != b[i].start_sample ||
        a[i].end_sample != b[i].end_sample ||
        a[i].predicted_class != b[i].predicted_class ||
        a[i].probabilities != b[i].probabilities) {
      return false;
    }
  }
  return true;
}

/// Drain-latency quantile in microseconds (serve.drain_latency_ns).
double drain_us(const obs::RegistrySnapshot& metrics, double q) {
  return metrics.histogram("serve.drain_latency_ns").quantile(q) / 1000.0;
}

// ---- epoll client engine ------------------------------------------------

struct ClientConn {
  net::Fd fd;
  std::size_t id = 0;
  std::size_t variant = 0;
  std::size_t model = 0;  ///< round-robin index into Options::models
  bool start_sent = false;
  bool awaiting_start_ack = false;
  std::size_t pos = 0;  ///< samples pushed so far
  std::string inbuf;
  std::string outbuf;
  std::size_t out_off = 0;
  std::vector<core::EmotionEvent> events;
  enum class State { kConnecting, kStreaming, kFinishing, kDraining } state =
      State::kConnecting;
  bool awaiting_ack = false;
  Clock::time_point next_send{};
  std::uint32_t armed = 0;
  std::uint64_t overloads = 0;
};

struct TrajectoryRow {
  double t_s = 0.0;
  std::size_t started = 0;
  std::size_t done = 0;
  std::size_t active = 0;
  std::uint64_t events = 0;
  std::uint64_t overloads = 0;
  double drain_p99_us = 0.0;
};

/// Single-threaded open-loop load engine against a NetServer port.
/// `references` is indexed [model][variant]: each connection's parity
/// oracle is the standalone attack with the model it bound to.
class LoadEngine {
 public:
  LoadEngine(const Options& opt, std::uint16_t port,
             const std::vector<std::vector<double>>& traces,
             const std::vector<std::vector<std::vector<core::EmotionEvent>>>&
                 references,
             const serve::ServeService& service)
      : opt_{opt}, port_{port}, traces_{traces}, references_{references},
        service_{service}, epoll_{::epoll_create1(EPOLL_CLOEXEC)} {
    if (!epoll_.valid()) throw net::errno_error("loadgen: epoll_create1");
    results_.resize(opt.conns);
  }

  /// Runs the open-loop schedule to completion. Returns false on any
  /// failed/unfinished connection (details in failures()).
  bool run() {
    t0_ = Clock::now();
    const auto deadline =
        t0_ + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>{opt_.timeout_s});
    auto next_sample = t0_;

    while (done_ + failed_ < opt_.conns) {
      const auto now = Clock::now();
      if (now >= deadline) {
        fail_remaining("timed out");
        break;
      }
      start_due_arrivals(now);
      for (auto it = conns_.begin(); it != conns_.end();) {
        ClientConn& conn = *it->second;
        ++it;  // maybe_send can retire the connection
        maybe_send(conn, now);
      }
      if (now >= next_sample) {
        sample_trajectory(now);
        next_sample = now + std::chrono::milliseconds{opt_.sample_ms};
      }
      wait_and_dispatch(now, next_sample, deadline);
    }
    elapsed_s_ = std::chrono::duration<double>(Clock::now() - t0_).count();
    sample_trajectory(Clock::now());
    return failed_ == 0;
  }

  [[nodiscard]] const std::vector<std::vector<core::EmotionEvent>>& results()
      const noexcept {
    return results_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] const std::vector<TrajectoryRow>& trajectory() const noexcept {
    return trajectory_;
  }
  [[nodiscard]] double elapsed_s() const noexcept { return elapsed_s_; }
  [[nodiscard]] std::size_t peak_concurrent() const noexcept { return peak_; }
  [[nodiscard]] std::uint64_t total_events() const noexcept {
    return events_total_;
  }
  [[nodiscard]] std::uint64_t total_overloads() const noexcept {
    return overloads_total_;
  }
  [[nodiscard]] std::uint64_t total_no_capacity() const noexcept {
    return no_capacity_total_;
  }

 private:
  void start_due_arrivals(Clock::time_point now) {
    while (started_ < opt_.conns) {
      const auto due =
          t0_ + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>{
                        static_cast<double>(started_) / opt_.rate});
      if (now < due) break;
      spawn(started_++);
    }
  }

  void spawn(std::size_t id) {
    auto conn = std::make_unique<ClientConn>();
    conn->id = id;
    conn->variant = id % kTraceVariants;
    conn->model = opt_.models.empty() ? 0 : id % opt_.models.size();
    conn->fd = net::connect_loopback_nonblocking(port_);
    conn->next_send = Clock::now();
    const int fd = conn->fd.get();
    // EPOLLOUT fires when the non-blocking connect resolves.
    arm(*conn, EPOLLIN | EPOLLOUT);
    conns_.emplace(fd, std::move(conn));
    peak_ = std::max(peak_, conns_.size());
  }

  void arm(ClientConn& conn, std::uint32_t mask) {
    if (conn.armed == mask) return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = conn.fd.get();
    const int op = conn.armed == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
    if (::epoll_ctl(epoll_.get(), op, conn.fd.get(), &ev) != 0) {
      throw net::errno_error("loadgen: epoll_ctl");
    }
    conn.armed = mask;
  }

  void maybe_send(ClientConn& conn, Clock::time_point now) {
    if (conn.state == ClientConn::State::kConnecting ||
        conn.state == ClientConn::State::kDraining || conn.awaiting_ack ||
        now < conn.next_send) {
      return;
    }
    if (!opt_.models.empty() && !conn.start_sent) {
      // Bind the stream to its task before any sample travels; the
      // start rides the same shard FIFO as the chunks, so ordering is
      // guaranteed server-side too.
      serve::encode(conn.outbuf, serve::StreamStartMsg{
                                     conn.id, opt_.models[conn.model]});
      conn.start_sent = true;
      conn.awaiting_start_ack = true;
      conn.awaiting_ack = true;
      flush(conn);
      return;
    }
    const std::vector<double>& trace = traces_[conn.variant];
    if (conn.state == ClientConn::State::kStreaming &&
        conn.pos >= trace.size()) {
      conn.state = ClientConn::State::kFinishing;
    }
    if (conn.state == ClientConn::State::kFinishing) {
      serve::encode(conn.outbuf, serve::StreamFinishMsg{conn.id});
    } else {
      const std::size_t hi = std::min(conn.pos + opt_.chunk, trace.size());
      serve::encode(
          conn.outbuf,
          serve::ChunkPushMsg{
              conn.id,
              {trace.begin() + static_cast<std::ptrdiff_t>(conn.pos),
               trace.begin() + static_cast<std::ptrdiff_t>(hi)}});
    }
    conn.awaiting_ack = true;
    flush(conn);
  }

  void flush(ClientConn& conn) {
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t sent =
          ::send(conn.fd.get(), conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (sent > 0) {
        conn.out_off += static_cast<std::size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (sent < 0 && errno == EINTR) continue;
      fail(conn, "send failed");
      return;
    }
    if (conn.out_off == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
      arm(conn, EPOLLIN);
    } else {
      arm(conn, EPOLLIN | EPOLLOUT);
    }
  }

  void wait_and_dispatch(Clock::time_point now, Clock::time_point next_sample,
                         Clock::time_point deadline) {
    // Sleep until the earliest thing to do: next arrival, next due
    // send, next trajectory sample, or the run deadline.
    auto next = std::min(next_sample, deadline);
    if (started_ < opt_.conns) {
      next = std::min(
          next, t0_ + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>{
                              static_cast<double>(started_) / opt_.rate}));
    }
    for (const auto& [fd, conn] : conns_) {
      if (!conn->awaiting_ack &&
          conn->state != ClientConn::State::kConnecting &&
          conn->state != ClientConn::State::kDraining) {
        next = std::min(next, conn->next_send);
      }
    }
    int timeout_ms = 0;
    if (next > now) {
      timeout_ms = static_cast<int>(std::chrono::duration_cast<
                                        std::chrono::milliseconds>(next - now)
                                        .count()) +
                   1;
      timeout_ms = std::min(timeout_ms, 50);
    }

    epoll_event events[64];
    const int n = ::epoll_wait(epoll_.get(), events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return;
      throw net::errno_error("loadgen: epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const auto it = conns_.find(events[i].data.fd);
      if (it == conns_.end()) continue;  // retired by an earlier event
      ClientConn& conn = *it->second;
      if (conn.state == ClientConn::State::kConnecting) {
        if (!finish_connect(conn)) continue;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Drain whatever the server wrote before it closed; readable()
        // fails the connection if it is not complete.
        readable(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        readable(conn);
        if (conns_.find(events[i].data.fd) == conns_.end()) continue;
      }
      if (events[i].events & EPOLLOUT) flush(conn);
    }
  }

  bool finish_connect(ClientConn& conn) {
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(conn.fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      fail(conn, "connect failed");
      return false;
    }
    conn.state = ClientConn::State::kStreaming;
    arm(conn, EPOLLIN);
    maybe_send(conn, Clock::now());
    return conns_.count(conn.fd.get()) != 0;
  }

  void readable(ClientConn& conn) {
    const int fd = conn.fd.get();
    for (;;) {
      char chunk[64 * 1024];
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got > 0) {
        conn.inbuf.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      // EOF or reset: only valid after this connection retired, which
      // would have erased it from conns_ already.
      parse(conn);
      if (conns_.count(fd) != 0) fail(conn, "server closed early");
      return;
    }
    parse(conn);
  }

  void parse(ClientConn& conn) {
    serve::FrameReader reader{conn.inbuf};
    const int fd = conn.fd.get();
    try {
      while (auto msg = reader.next()) {
        handle(conn, *msg);
        if (conns_.count(fd) == 0) return;  // retired mid-parse
      }
    } catch (const util::DataError& e) {
      fail(conn, std::string{"corrupt reply: "} + e.what());
      return;
    }
    conn.inbuf.erase(0, reader.offset());
  }

  void handle(ClientConn& conn, const serve::Message& msg) {
    const auto now = Clock::now();
    if (const auto* ev = std::get_if<serve::EventMsg>(&msg)) {
      conn.events.push_back(ev->event);
      ++events_total_;
      if (conn.state == ClientConn::State::kDraining) check_done(conn);
      return;
    }
    const auto* ack = std::get_if<serve::AckMsg>(&msg);
    if (ack == nullptr) return;  // stats replies etc. — not sent here
    conn.awaiting_ack = false;
    if (ack->status == Status::kOverloaded ||
        ack->status == Status::kNoCapacity) {
      if (ack->status == Status::kOverloaded) {
        ++conn.overloads;
        ++overloads_total_;
      } else {
        ++no_capacity_total_;
      }
      if (conn.awaiting_start_ack) {
        // The start was refused, not admitted: send it again.
        conn.awaiting_start_ack = false;
        conn.start_sent = false;
      }
      conn.next_send =
          now + std::chrono::milliseconds{
                    std::max<std::uint32_t>(ack->retry_after_ms, 1)};
      return;
    }
    if (ack->status != Status::kOk) {
      fail(conn, "error ack from server");
      return;
    }
    if (conn.awaiting_start_ack) {
      // The StreamStart was admitted; begin pushing samples.
      conn.awaiting_start_ack = false;
      conn.next_send = now;
      maybe_send(conn, now);
      return;
    }
    if (conn.state == ClientConn::State::kFinishing) {
      conn.state = ClientConn::State::kDraining;
      check_done(conn);
      return;
    }
    conn.pos = std::min(conn.pos + opt_.chunk, traces_[conn.variant].size());
    conn.next_send = now + std::chrono::milliseconds{opt_.cadence_ms};
    maybe_send(conn, now);
  }

  void check_done(ClientConn& conn) {
    if (conn.events.size() < references_[conn.model][conn.variant].size()) {
      return;
    }
    results_[conn.id] = std::move(conn.events);
    ++done_;
    retire(conn);
  }

  void fail(ClientConn& conn, const std::string& why) {
    failures_.push_back("conn " + std::to_string(conn.id) + ": " + why);
    ++failed_;
    retire(conn);
  }

  void retire(ClientConn& conn) {
    conns_.erase(conn.fd.get());  // closes the fd, deregisters from epoll
  }

  void fail_remaining(const std::string& why) {
    std::vector<ClientConn*> open;
    open.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) open.push_back(conn.get());
    for (ClientConn* conn : open) fail(*conn, why);
    failed_ += opt_.conns - started_;  // never-started arrivals
  }

  void sample_trajectory(Clock::time_point now) {
    TrajectoryRow row;
    row.t_s = std::chrono::duration<double>(now - t0_).count();
    row.started = started_;
    row.done = done_;
    row.active = conns_.size();
    row.events = events_total_;
    row.overloads = overloads_total_;
    row.drain_p99_us = drain_us(service_.metrics_snapshot(), 0.99);
    trajectory_.push_back(row);
  }

  const Options& opt_;
  std::uint16_t port_;
  const std::vector<std::vector<double>>& traces_;
  const std::vector<std::vector<std::vector<core::EmotionEvent>>>& references_;
  const serve::ServeService& service_;
  net::Fd epoll_;
  std::unordered_map<int, std::unique_ptr<ClientConn>> conns_;
  std::vector<std::vector<core::EmotionEvent>> results_;
  std::vector<std::string> failures_;
  std::vector<TrajectoryRow> trajectory_;
  Clock::time_point t0_{};
  std::size_t started_ = 0;
  std::size_t done_ = 0;
  std::size_t failed_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t events_total_ = 0;
  std::uint64_t overloads_total_ = 0;
  std::uint64_t no_capacity_total_ = 0;
  double elapsed_s_ = 0.0;
};

// ---- end-of-run wire scrape ---------------------------------------------

/// Pulls the server's merged metrics snapshot over the same TCP
/// transport the load ran on (one kMetricsRequest frame), so the JSON
/// output records what a real remote scraper would see — including the
/// net.* transport counters this client cannot observe locally. Best
/// effort: a failed scrape warns and the JSON omits the section.
std::optional<obs::RegistrySnapshot> scrape_metrics(std::uint16_t port) {
  try {
    net::BlockingClient client{port};
    client.set_recv_timeout(5000);
    client.send(serve::MetricsRequestMsg{});
    const auto reply = client.recv();
    if (reply) {
      if (const auto* m = std::get_if<serve::MetricsReplyMsg>(&*reply)) {
        return m->snapshot;
      }
    }
    std::cerr << "loadgen: metrics scrape got no usable reply\n";
  } catch (const std::exception& error) {
    std::cerr << "loadgen: metrics scrape failed: " << error.what() << "\n";
  }
  return std::nullopt;
}

// ---- JSON output --------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // names are ASCII
    out.push_back(c);
  }
  return out;
}

void write_json(const std::string& path, const Options& opt,
                const LoadEngine& engine, const obs::RegistrySnapshot& metrics,
                const std::optional<obs::RegistrySnapshot>& scraped,
                std::uint64_t dropped_frames) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"loadgen: cannot write " + path};
  const double elapsed = std::max(engine.elapsed_s(), 1e-9);
  const obs::HistogramSnapshot& batch = metrics.histogram("serve.batch_size");
  out << "{\n"
      << "  \"config\": {\n"
      << "    \"conns\": " << opt.conns << ",\n"
      << "    \"arrival_rate_per_s\": " << fmt(opt.rate) << ",\n"
      << "    \"chunk\": " << opt.chunk << ",\n"
      << "    \"cadence_ms\": " << opt.cadence_ms << ",\n"
      << "    \"trace_len\": " << opt.trace_len << ",\n"
      << "    \"threads\": " << opt.threads << "\n"
      << "  },\n"
      << "  \"summary\": {\n"
      << "    \"elapsed_s\": " << fmt(engine.elapsed_s()) << ",\n"
      << "    \"conns_per_sec\": "
      << fmt(static_cast<double>(opt.conns) / elapsed) << ",\n"
      << "    \"events_per_sec\": "
      << fmt(static_cast<double>(engine.total_events()) / elapsed) << ",\n"
      << "    \"samples_per_sec\": "
      << fmt(static_cast<double>(metrics.counter("serve.samples_processed")) /
             elapsed)
      << ",\n"
      << "    \"drain_p50_us\": " << fmt(drain_us(metrics, 0.50)) << ",\n"
      << "    \"drain_p99_us\": " << fmt(drain_us(metrics, 0.99)) << ",\n"
      << "    \"dropped_frames\": " << dropped_frames << ",\n"
      << "    \"peak_concurrent\": " << engine.peak_concurrent() << ",\n"
      << "    \"overload_acks\": " << engine.total_overloads() << ",\n"
      << "    \"no_capacity_acks\": " << engine.total_no_capacity() << ",\n"
      << "    \"frames_in\": " << metrics.counter("net.frames_in") << ",\n"
      << "    \"partial_reads\": " << metrics.counter("net.partial_reads")
      << ",\n"
      << "    \"events_routed\": " << metrics.counter("net.events_routed")
      << ",\n"
      << "    \"windows_batched\": " << metrics.counter("serve.windows_batched")
      << ",\n"
      << "    \"batch_count\": " << batch.count << ",\n"
      << "    \"batch_p50\": " << fmt(batch.quantile(0.50)) << ",\n"
      << "    \"batch_p99\": " << fmt(batch.quantile(0.99)) << "\n"
      << "  },\n";
  if (scraped) {
    // The snapshot a remote scraper saw mid-run, verbatim: counters and
    // gauges flat, histograms reduced to count/p50/p99 (full bucket
    // detail stays wire-side; the trajectory only needs the shape).
    out << "  \"server_metrics\": {\n    \"counters\": {";
    for (std::size_t i = 0; i < scraped->counters.size(); ++i) {
      const auto& [name, value] = scraped->counters[i];
      out << (i == 0 ? "" : ",") << "\n      \"" << json_escape(name)
          << "\": " << value;
    }
    out << "\n    },\n    \"gauges\": {";
    for (std::size_t i = 0; i < scraped->gauges.size(); ++i) {
      const auto& [name, value] = scraped->gauges[i];
      out << (i == 0 ? "" : ",") << "\n      \"" << json_escape(name)
          << "\": " << value;
    }
    out << "\n    },\n    \"histograms\": {";
    for (std::size_t i = 0; i < scraped->histograms.size(); ++i) {
      const auto& [name, hist] = scraped->histograms[i];
      out << (i == 0 ? "" : ",") << "\n      \"" << json_escape(name)
          << "\": {\"count\": " << hist.count << ", \"p50\": "
          << fmt(hist.quantile(0.5)) << ", \"p99\": "
          << fmt(hist.quantile(0.99)) << "}";
    }
    out << "\n    }\n  },\n";
  }
  out << "  \"trajectory\": [\n";
  const auto& rows = engine.trajectory();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrajectoryRow& r = rows[i];
    out << "    {\"t_s\": " << fmt(r.t_s) << ", \"started\": " << r.started
        << ", \"done\": " << r.done << ", \"active\": " << r.active
        << ", \"events\": " << r.events << ", \"overloads\": " << r.overloads
        << ", \"drain_p99_us\": " << fmt(r.drain_p99_us) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (arg("--conns")) {
      opt.conns = std::stoul(argv[++i]);
    } else if (arg("--rate")) {
      opt.rate = std::stod(argv[++i]);
    } else if (arg("--chunk")) {
      opt.chunk = std::stoul(argv[++i]);
    } else if (arg("--cadence-ms")) {
      opt.cadence_ms = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg("--trace-len")) {
      opt.trace_len = std::stoul(argv[++i]);
    } else if (arg("--threads")) {
      opt.threads = std::stoul(argv[++i]);
    } else if (arg("--sample-ms")) {
      opt.sample_ms = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg("--json")) {
      opt.json_path = argv[++i];
    } else if (arg("--model")) {
      std::string list = argv[++i];
      for (std::size_t pos = 0; pos <= list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        if (comma > pos) opt.models.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
      }
    } else if (arg("--timeout-s")) {
      opt.timeout_s = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // Small preset for the ctest smoke target: quick, but still
      // concurrent enough to exercise accept/affinity/drain routing.
      opt.conns = 16;
      opt.rate = 400.0;
      opt.trace_len = 6300;
      opt.timeout_s = 60.0;
    } else {
      std::cerr << "unknown or incomplete option: " << argv[i] << "\n";
      return EXIT_FAILURE;
    }
  }
  if (opt.conns == 0 || opt.chunk == 0 || opt.rate <= 0.0) {
    std::cerr << "loadgen: --conns, --chunk, --rate must be positive\n";
    return EXIT_FAILURE;
  }
  for (std::size_t m = 0; m < opt.models.size(); ++m) {
    for (std::size_t k = m + 1; k < opt.models.size(); ++k) {
      if (opt.models[m] == opt.models[k]) {
        std::cerr << "loadgen: duplicate --model name " << opt.models[m]
                  << "\n";
        return EXIT_FAILURE;
      }
    }
  }

  // ---- traces + standalone references (the parity oracle) -----------
  // One distinct model per --model name (different training seeds, so
  // their probability vectors differ); references[model][variant] is
  // what a stream bound to that model must emit, bit for bit.
  const std::size_t model_count = std::max<std::size_t>(1, opt.models.size());
  std::vector<std::shared_ptr<const ml::Classifier>> models;
  for (std::size_t m = 0; m < model_count; ++m) {
    models.push_back(make_model(3, 7 + 11 * m));
  }
  std::vector<std::vector<double>> traces;
  for (std::size_t v = 0; v < kTraceVariants; ++v) {
    traces.push_back(make_trace(opt.trace_len, 1000 + v));
  }
  std::vector<std::vector<std::vector<core::EmotionEvent>>> references(
      model_count);
  std::size_t expected_per_cycle = 0;
  for (std::size_t m = 0; m < model_count; ++m) {
    for (std::size_t v = 0; v < kTraceVariants; ++v) {
      references[m].push_back(
          standalone_events(traces[v], opt.chunk, models[m]));
      expected_per_cycle += references[m][v].size();
    }
  }
  if (expected_per_cycle == 0) {
    std::cerr << "loadgen: warning: no trace variant produces events "
                 "(--trace-len below the detector warm-up?); only the "
                 "ack path will be exercised\n";
  }

  // ---- server ---------------------------------------------------------
  auto registry = std::make_shared<serve::ModelRegistry>();
  if (opt.models.empty()) {
    registry->add("loadgen-logistic", models[0]);
  } else {
    for (std::size_t m = 0; m < opt.models.size(); ++m) {
      registry->add(opt.models[m], models[m]);
    }
  }
  serve::ServeConfig cfg;
  cfg.session.stream = stream_config();
  cfg.session.sample_rate_hz = kRate;
  cfg.session.max_sessions = opt.conns;
  cfg.batcher.shard_count = 8;
  cfg.batcher.queue_capacity = 1024;
  cfg.parallelism = util::Parallelism{.threads = opt.threads};
  serve::ServeService service{cfg, registry};

  net::NetServerConfig net_cfg;
  net_cfg.max_connections = opt.conns + 8;
  net::NetServer server{net_cfg, service};
  server.start();
  std::cout << "serving on 127.0.0.1:" << server.port() << " — " << opt.conns
            << " connections at " << opt.rate << "/s, chunk " << opt.chunk
            << ", cadence " << opt.cadence_ms << " ms\n";

  // ---- drive ----------------------------------------------------------
  LoadEngine engine{opt, server.port(), traces, references, service};
  const bool completed = engine.run();
  // Scrape while the server is still live: the whole point is to read
  // the metrics the way an external scraper would, over the wire.
  const std::optional<obs::RegistrySnapshot> scraped =
      scrape_metrics(server.port());
  server.stop();

  // ---- verify: zero drops, bit-identical events ----------------------
  // Per-task accounting: connection id streams trace id % kTraceVariants
  // against model id % model_count, so its oracle is
  // references[model][variant].
  std::uint64_t expected_events = 0;
  std::vector<std::uint64_t> expected_per_model(model_count, 0);
  for (std::size_t id = 0; id < opt.conns; ++id) {
    const std::size_t m = opt.models.empty() ? 0 : id % model_count;
    const std::uint64_t n = references[m][id % kTraceVariants].size();
    expected_events += n;
    expected_per_model[m] += n;
  }
  const std::uint64_t got_events = engine.total_events();
  const std::uint64_t dropped =
      expected_events > got_events ? expected_events - got_events : 0;

  std::size_t parity_failures = 0;
  std::vector<std::uint64_t> got_per_model(model_count, 0);
  for (std::size_t id = 0; id < opt.conns; ++id) {
    const std::size_t m = opt.models.empty() ? 0 : id % model_count;
    got_per_model[m] += engine.results()[id].size();
    if (!same_events(engine.results()[id],
                     references[m][id % kTraceVariants])) {
      ++parity_failures;
    }
  }

  // After stop(): the service registry holds the serve.* and net.*
  // totals of the whole run.
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  const obs::HistogramSnapshot& batch = metrics.histogram("serve.batch_size");
  const std::uint64_t windows_batched = metrics.counter("serve.windows_batched");
  std::cout << "completed in " << fmt(engine.elapsed_s()) << " s: "
            << got_events << "/" << expected_events << " events, peak "
            << engine.peak_concurrent() << " concurrent, "
            << engine.total_overloads() << " overload and "
            << engine.total_no_capacity() << " no-capacity acks honored, drain "
            << "p50 " << fmt(drain_us(metrics, 0.50)) << " us / p99 "
            << fmt(drain_us(metrics, 0.99)) << " us ("
            << metrics.counter("net.partial_reads")
            << " partial reads reassembled)\n";
  const double mean_batch =
      batch.count > 0 ? static_cast<double>(windows_batched) /
                            static_cast<double>(batch.count)
                      : 0.0;
  std::cout << "batched inference: " << windows_batched << " windows over "
            << batch.count << " batches (mean " << fmt(mean_batch) << ", p50 "
            << fmt(batch.quantile(0.50)) << ", p99 "
            << fmt(batch.quantile(0.99)) << ")\n";
  if (!batch.buckets.empty()) {
    std::cout << "  batch-size histogram:";
    for (const obs::HistogramSnapshot::Bucket& b : batch.buckets) {
      std::cout << " <=" << static_cast<std::uint64_t>(b.upper) << ":"
                << b.count;
    }
    std::cout << "\n";
  }
  if (!opt.models.empty()) {
    for (std::size_t m = 0; m < model_count; ++m) {
      std::cout << "  task " << opt.models[m] << ": " << got_per_model[m]
                << "/" << expected_per_model[m] << " events\n";
    }
  }

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, opt, engine, metrics, scraped, dropped);
    std::cout << "wrote " << opt.json_path << "\n";
  }

  bool ok = completed && dropped == 0 && parity_failures == 0;
  for (const std::string& f : engine.failures()) {
    std::cerr << "FAIL: " << f << "\n";
  }
  if (dropped != 0) std::cerr << "FAIL: " << dropped << " dropped events\n";
  if (parity_failures != 0) {
    std::cerr << "FAIL: " << parity_failures
              << " connections diverged from the standalone attack\n";
  }
  if (server.running()) {
    std::cerr << "FAIL: server still running after stop()\n";
    ok = false;
  }
  if (!ok) return EXIT_FAILURE;
  std::cout << "all " << opt.conns
            << " connections bit-identical to the standalone attack; zero "
               "dropped frames; clean shutdown\n";
  return EXIT_SUCCESS;
}
