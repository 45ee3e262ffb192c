// Loopback ports for tests that start a ring of managers.
//
// A port is reserved by binding port 0 and closing the socket, so the
// number is free when reserve_port() returns but not held: another socket
// can take it before the manager binds it (under `ctest -j`, a client
// socket of a concurrent test picking the same ephemeral port is the
// usual culprit, and the manager's bind fails with EADDRINUSE).
// start_on_fresh_ports() absorbs that race: when starting the ring fails
// on a taken port, it reserves a fresh ring and starts again, a bounded
// number of times. Any other failure propagates unchanged.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/manager_node.h"

namespace p2prep::cluster::test_ports {

/// A loopback port that was free a moment ago (see the file comment).
/// Returns 0 when no socket could be bound, which no manager accepts.
inline std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Whether a failure message reports a port another socket holds — how
/// ManagerNode::start() (and a `p2prep_cli manager` child's stderr)
/// words EADDRINUSE.
inline bool port_taken(std::string_view message) {
  return message.find(std::strerror(EADDRINUSE)) != std::string_view::npos;
}

/// Attempts start_on_fresh_ports() makes before giving up.
inline constexpr int kRingAttempts = 5;

/// Reserves `size` loopback ports and calls start(ring). When start
/// throws an exception whose message port_taken() recognises, it calls
/// start again with a freshly reserved ring, up to kRingAttempts in all;
/// `start` must therefore undo whatever a failed earlier attempt left
/// running. Returns the ring that started.
template <typename Start>
std::vector<ManagerEndpoint> start_on_fresh_ports(std::size_t size,
                                                  Start&& start) {
  for (int attempt = 1;; ++attempt) {
    std::vector<ManagerEndpoint> ring;
    for (std::size_t i = 0; i < size; ++i)
      ring.push_back({"127.0.0.1", reserve_port()});
    try {
      start(ring);
      return ring;
    } catch (const std::exception& e) {
      if (!port_taken(e.what()) || attempt == kRingAttempts) throw;
    }
  }
}

}  // namespace p2prep::cluster::test_ports
