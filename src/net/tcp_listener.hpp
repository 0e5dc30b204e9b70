// Shared TCP accept/cap/shed machinery for the node's plane servers.
//
// Both front doors of a node — the HTTP admin plane (net/admin.hpp) and
// the binary client service (svc/server.hpp) — need the same listen-side
// skeleton: a non-blocking CLOEXEC listen socket bound to ip:port (port 0
// picks an ephemeral port), registered with the single epoll EventLoop,
// draining accept4() in a loop on every wake, with Nagle disabled on every
// accepted socket (set once on the listener; accept4 inherits it), and
// *shedding* connections past a capacity check instead of queueing them
// (close immediately; the client retries). This class is that skeleton,
// extracted so there is exactly one conn-cap + shed implementation; the
// owners keep their own counters and per-connection state via the
// callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/event_loop.hpp"

namespace evs::net {

class TcpListener {
 public:
  struct Callbacks {
    /// Checked before each accepted connection is handed over; true sheds
    /// it (closed immediately, on_shed fires). Null means no cap.
    std::function<bool()> at_capacity;
    /// Receives each accepted fd (non-blocking, CLOEXEC); ownership
    /// transfers — the owner registers it with the loop and closes it.
    std::function<void(int fd)> on_connection;
    /// One shed connection was closed (owner counts dropped_overload).
    std::function<void()> on_shed;
  };

  /// Binds ip:port (host byte order; port 0 picks an ephemeral port, see
  /// bound_port()) and registers with the loop. Throws InvariantViolation
  /// on socket/bind/listen failure; `tag` names the owner in the message.
  TcpListener(EventLoop& loop, std::uint32_t ip, std::uint16_t port,
              Callbacks callbacks, const std::string& tag);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t bound_port() const { return bound_port_; }

 private:
  void on_accept();

  EventLoop& loop_;
  Callbacks callbacks_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
};

}  // namespace evs::net
