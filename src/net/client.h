// Minimal blocking client for the emoleak::serve TCP transport — the
// counterpart tests and tools speak to NetServer with. One socket, one
// receive buffer, frames reassembled through the same resumable
// FrameReader the server uses (so a frame split across TCP segments is
// exercised on both sides of the wire).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/socket.h"
#include "serve/protocol.h"

namespace emoleak::net {

class BlockingClient {
 public:
  /// Connects to 127.0.0.1:`port`. Throws NetError on failure.
  explicit BlockingClient(std::uint16_t port);

  /// Encodes and writes one frame (fully — loops over short writes).
  void send(const serve::Message& msg);

  /// Writes raw bytes as-is: lets tests send deliberately split,
  /// coalesced, or corrupt frames.
  void send_bytes(std::string_view bytes);

  /// Blocks until one complete frame arrives and returns it. nullopt on
  /// orderly close with an empty reassembly buffer; throws
  /// util::DataError if the peer closes mid-frame or sends garbage.
  [[nodiscard]] std::optional<serve::Message> recv();

  /// Bounds recv() waits: after `ms` without bytes it throws NetError
  /// instead of blocking forever (0 restores indefinite blocking).
  void set_recv_timeout(std::uint32_t ms);

  /// Hard-closes the socket (a mid-stream disconnect, from the
  /// server's point of view).
  void close() noexcept { fd_.reset(); }

  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }

 private:
  Fd fd_;
  std::string inbuf_;
};

}  // namespace emoleak::net
