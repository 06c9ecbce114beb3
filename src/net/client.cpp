#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "util/error.h"

namespace emoleak::net {

BlockingClient::BlockingClient(std::uint16_t port)
    : fd_{connect_loopback(port)} {}

void BlockingClient::send(const serve::Message& msg) {
  send_bytes(serve::encode_one(msg));
}

void BlockingClient::send_bytes(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t sent = ::send(fd_.get(), bytes.data() + off,
                                bytes.size() - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw errno_error("net: client send");
    }
    off += static_cast<std::size_t>(sent);
  }
}

std::optional<serve::Message> BlockingClient::recv() {
  for (;;) {
    {
      serve::FrameReader reader{inbuf_};
      std::optional<serve::Message> msg = reader.next();
      if (msg) {
        inbuf_.erase(0, reader.offset());
        return msg;
      }
    }
    char chunk[16 * 1024];
    const ssize_t got = ::recv(fd_.get(), chunk, sizeof chunk, 0);
    if (got > 0) {
      inbuf_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) {
      if (inbuf_.empty()) return std::nullopt;  // orderly end-of-stream
      throw util::DataError{"net: peer closed mid-frame"};
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw NetError{"net: client recv timed out"};
    }
    throw errno_error("net: client recv");
  }
}

void BlockingClient::set_recv_timeout(std::uint32_t ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<long>(ms % 1000) * 1000;
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    throw errno_error("net: setsockopt(SO_RCVTIMEO)");
  }
}

}  // namespace emoleak::net
