#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace emoleak::net {

NetError errno_error(const std::string& what) {
  return NetError{what + ": " + std::strerror(errno)};
}

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener make_listener(std::uint16_t port) {
  Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)};
  if (!fd.valid()) throw errno_error("net: socket");

  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
    throw errno_error("net: setsockopt(SO_REUSEADDR)");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw errno_error("net: bind");
  }
  if (::listen(fd.get(), 128) != 0) throw errno_error("net: listen");

  // Resolve the ephemeral port the kernel picked for port 0.
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw errno_error("net: getsockname");
  }
  return Listener{std::move(fd), ntohs(bound.sin_port)};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw errno_error("net: fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) noexcept {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Fd connect_loopback(std::uint16_t port) {
  Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
  if (!fd.valid()) throw errno_error("net: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    throw errno_error("net: connect");
  }
  set_nodelay(fd.get());
  return fd;
}

Fd connect_loopback_nonblocking(std::uint16_t port) {
  Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)};
  if (!fd.valid()) throw errno_error("net: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    throw errno_error("net: connect");
  }
  set_nodelay(fd.get());
  return fd;
}

}  // namespace emoleak::net
