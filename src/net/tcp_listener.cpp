#include "net/tcp_listener.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/check.hpp"

namespace evs::net {

TcpListener::TcpListener(EventLoop& loop, std::uint32_t ip, std::uint16_t port,
                         Callbacks callbacks, const std::string& tag)
    : loop_(loop), callbacks_(std::move(callbacks)) {
  EVS_CHECK(callbacks_.on_connection != nullptr);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  EVS_CHECK_MSG(listen_fd_ >= 0, tag + ": socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Replies leave at once: accept4() copies TCP_NODELAY to every accepted
  // socket, so Nagle never holds a reply until the client's next segment
  // carries an ACK.
  ::setsockopt(listen_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip);
  addr.sin_port = htons(port);
  EVS_CHECK_MSG(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      tag + ": cannot bind " + tag + " port");
  EVS_CHECK_MSG(::listen(listen_fd_, 128) == 0, tag + ": listen() failed");
  socklen_t len = sizeof(addr);
  EVS_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  bound_port_ = ntohs(addr.sin_port);
  loop_.add_fd(listen_fd_, [this]() { on_accept(); });
}

TcpListener::~TcpListener() {
  if (listen_fd_ >= 0) {
    loop_.remove_fd(listen_fd_);
    ::close(listen_fd_);
  }
}

void TcpListener::on_accept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for the next wake
    if (callbacks_.at_capacity && callbacks_.at_capacity()) {
      // Shed load instead of queueing: the client will retry.
      ::close(fd);
      if (callbacks_.on_shed) callbacks_.on_shed();
      continue;
    }
    callbacks_.on_connection(fd);
  }
}

}  // namespace evs::net
