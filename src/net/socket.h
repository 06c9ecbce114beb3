// Socket primitives for the emoleak::net transport: an RAII file
// descriptor and the few loopback TCP helpers the epoll server and the
// test/loadgen clients need. Everything binds/connects 127.0.0.1 only —
// this is a research service; exposing the attack pipeline on a real
// interface is a deployment decision, not a library default.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace emoleak::net {

/// Thrown on unexpected syscall failure (socket/bind/epoll_ctl, ...).
/// Expected conditions — EAGAIN, peer resets, orderly shutdown — are
/// handled in-line by the transport, never via this exception.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Builds a NetError carrying the errno text for `what`.
[[nodiscard]] NetError errno_error(const std::string& what);

/// RAII file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_{fd} {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_{other.release()} {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// A bound, listening, non-blocking TCP socket plus the port it landed
/// on (`port` resolves 0 -> the kernel-assigned ephemeral port).
struct Listener {
  Fd fd;
  std::uint16_t port = 0;
};

/// Non-blocking listener on 127.0.0.1:`port` (0 = ephemeral) with
/// SO_REUSEADDR and a listen() backlog of 128. Throws NetError on
/// failure.
[[nodiscard]] Listener make_listener(std::uint16_t port);

/// Sets O_NONBLOCK. Throws NetError on failure.
void set_nonblocking(int fd);

/// Disables Nagle (TCP_NODELAY): the protocol is small request/ack
/// frames, where coalescing delay dwarfs the classify latency being
/// measured. Best-effort — failure is ignored.
void set_nodelay(int fd) noexcept;

/// Blocking connect to 127.0.0.1:`port`. Throws NetError on failure.
[[nodiscard]] Fd connect_loopback(std::uint16_t port);

/// Non-blocking connect to 127.0.0.1:`port`: returns immediately with
/// the connect in flight (EINPROGRESS). The caller waits for EPOLLOUT
/// and checks SO_ERROR — the shape an epoll client engine (loadgen)
/// needs to open hundreds of connections without serializing on
/// handshakes. Throws NetError only on immediate failure.
[[nodiscard]] Fd connect_loopback_nonblocking(std::uint16_t port);

}  // namespace emoleak::net
