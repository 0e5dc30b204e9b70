// Unit tests for the real-socket runtime: datagram envelope, peer config
// parsing, the epoll event loop's clock/timers, and two UdpTransports
// exchanging frames over 127.0.0.1 inside one loop (including the
// drop-counting receive validation).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "net/config.hpp"
#include "net/datagram.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_listener.hpp"
#include "net/udp_transport.hpp"

namespace evs::net {

/// Test-only seam: lets a test invoke the socket-readable path directly
/// after sabotaging the fd, so receive-error accounting is reachable
/// without a cooperating kernel.
struct UdpTransportTestHook {
  static void inject_readable(UdpTransport& transport) {
    transport.on_readable();
  }
};

}  // namespace evs::net

namespace evs::test {
namespace {

using net::EventLoop;
using net::NodeConfig;
using net::PeerAddr;
using net::UdpTransport;

/// Binds an ephemeral UDP socket to learn a free loopback port.
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

NodeConfig config_for(SiteId self, const std::vector<PeerAddr>& addrs,
                      std::uint32_t incarnation = 1) {
  NodeConfig config;
  config.self = self;
  config.incarnation = incarnation;
  for (std::size_t i = 0; i < addrs.size(); ++i)
    config.peers.emplace(SiteId{static_cast<std::uint32_t>(i)}, addrs[i]);
  return config;
}

TEST(Datagram, HeaderRoundTrip) {
  std::uint8_t buf[net::kHeaderSize];
  const net::DatagramHeader header{ProcessId{SiteId{5}, 3}, 9};
  net::encode_header(header, buf);
  const auto parsed = net::parse_header(buf, sizeof(buf));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->from, header.from);
  EXPECT_EQ(parsed->dest_incarnation, header.dest_incarnation);
  EXPECT_EQ(parsed->group, kDefaultGroup);
  EXPECT_FALSE(parsed->coalesced);
}

TEST(Datagram, HeaderCarriesGroupAndCoalescedFlag) {
  // The envelope stamps the group id into every datagram — the
  // multi-group demux key — independently for plain and coalesced frames.
  std::uint8_t buf[net::kHeaderSize];
  for (const bool coalesced : {false, true}) {
    const net::DatagramHeader header{.from = ProcessId{SiteId{2}, 7},
                                     .dest_incarnation = 4,
                                     .group = GroupId{3},
                                     .coalesced = coalesced};
    net::encode_header(header, buf);
    const auto parsed = net::parse_header(buf, sizeof(buf));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->from, header.from);
    EXPECT_EQ(parsed->group, GroupId{3});
    EXPECT_EQ(parsed->coalesced, coalesced);
  }
}

TEST(Datagram, RejectsV1Magics) {
  // v1 ("EVS1"/"EVSB") datagrams have no group field; a v2 node must
  // refuse them outright rather than misread 16-byte headers.
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(net::DatagramHeader{ProcessId{SiteId{1}, 1}, 0}, buf);
  for (const std::uint32_t magic :
       {net::kDatagramMagicV1, net::kDatagramMagicBatchV1}) {
    std::memcpy(buf, &magic, sizeof(magic));
    EXPECT_FALSE(net::parse_header(buf, sizeof(buf)).has_value());
    // Not even as a 16-byte (v1-sized) header.
    EXPECT_FALSE(net::parse_header(buf, 16).has_value());
  }
}

TEST(Datagram, RejectsRuntBadMagicAndZeroIncarnation) {
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(net::DatagramHeader{ProcessId{SiteId{1}, 1}, 0}, buf);
  for (std::size_t len = 0; len < sizeof(buf); ++len)
    EXPECT_FALSE(net::parse_header(buf, len).has_value());
  std::uint8_t bad_magic[net::kHeaderSize];
  std::copy(buf, buf + sizeof(buf), bad_magic);
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(net::parse_header(bad_magic, sizeof(bad_magic)).has_value());
  // A from-incarnation of zero can never name a live process.
  net::encode_header(net::DatagramHeader{ProcessId{SiteId{1}, 0}, 0}, buf);
  EXPECT_FALSE(net::parse_header(buf, sizeof(buf)).has_value());
}

TEST(NetConfig, ParsesAddresses) {
  const auto addr = net::parse_addr("10.1.2.3:4567");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ip, 0x0A010203u);
  EXPECT_EQ(addr->port, 4567);
  EXPECT_FALSE(net::parse_addr("10.1.2:4567").has_value());
  EXPECT_FALSE(net::parse_addr("10.1.2.3").has_value());
  EXPECT_FALSE(net::parse_addr("10.1.2.3:99999").has_value());
  EXPECT_FALSE(net::parse_addr("10.1.2.256:1").has_value());
  EXPECT_FALSE(net::parse_addr("").has_value());
}

TEST(NetConfig, ParsesFullFile) {
  std::istringstream in(
      "# demo cluster\n"
      "self 1\n"
      "incarnation 4\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001   # our bind address\n"
      "peer 2 127.0.0.1:9002\n");
  NodeConfig config;
  std::string error;
  ASSERT_TRUE(net::parse_node_config(in, config, error)) << error;
  EXPECT_EQ(config.self, SiteId{1});
  EXPECT_EQ(config.incarnation, 4u);
  EXPECT_EQ(config.universe(),
            (std::vector<SiteId>{SiteId{0}, SiteId{1}, SiteId{2}}));
  EXPECT_EQ(config.self_addr().port, 9001);
}

TEST(NetConfig, ParsesAdminLines) {
  std::istringstream in(
      "self 1\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001\n"
      "peer 2 127.0.0.1:9002\n"
      "admin 1 127.0.0.1:9101\n"
      "admin 2 127.0.0.1:9102\n");
  NodeConfig config;
  std::string error;
  ASSERT_TRUE(net::parse_node_config(in, config, error)) << error;
  ASSERT_EQ(config.admin.size(), 2u);
  EXPECT_EQ(config.admin.at(SiteId{2}).port, 9102);
  ASSERT_TRUE(config.self_admin_addr().has_value());
  EXPECT_EQ(config.self_admin_addr()->port, 9101);
}

TEST(NetConfig, AdminLinesAreOptional) {
  std::istringstream in(
      "self 0\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001\n");
  NodeConfig config;
  std::string error;
  ASSERT_TRUE(net::parse_node_config(in, config, error)) << error;
  EXPECT_TRUE(config.admin.empty());
  EXPECT_FALSE(config.self_admin_addr().has_value());
}

TEST(NetConfig, RejectsBadAdminLines) {
  const char* base =
      "self 0\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001\n";
  const char* bad[] = {
      "admin 0 127.0.0.1:9100\nadmin 0 127.0.0.1:9101\n",  // duplicate site
      "admin 7 127.0.0.1:9100\n",                          // unknown site
      "admin 0 127.0.0.1\n",                               // bad address
      "admin 0\n",                                         // missing address
  };
  for (const char* lines : bad) {
    std::istringstream in(std::string(base) + lines);
    NodeConfig config;
    std::string error;
    EXPECT_FALSE(net::parse_node_config(in, config, error)) << lines;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetConfig, ParsesSvcLines) {
  std::istringstream in(
      "self 1\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001\n"
      "peer 2 127.0.0.1:9002\n"
      "svc 1 127.0.0.1:9201\n"
      "svc 2 127.0.0.1:9202\n");
  NodeConfig config;
  std::string error;
  ASSERT_TRUE(net::parse_node_config(in, config, error)) << error;
  ASSERT_EQ(config.svc.size(), 2u);
  EXPECT_EQ(config.svc.at(SiteId{2}).port, 9202);
  ASSERT_TRUE(config.self_svc_addr().has_value());
  EXPECT_EQ(config.self_svc_addr()->port, 9201);
}

TEST(NetConfig, SvcLinesAreOptional) {
  std::istringstream in(
      "self 0\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001\n");
  NodeConfig config;
  std::string error;
  ASSERT_TRUE(net::parse_node_config(in, config, error)) << error;
  EXPECT_TRUE(config.svc.empty());
  EXPECT_FALSE(config.self_svc_addr().has_value());
}

TEST(NetConfig, RejectsBadSvcLines) {
  const char* base =
      "self 0\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001\n";
  const char* bad[] = {
      "svc 0 127.0.0.1:9200\nsvc 0 127.0.0.1:9201\n",  // duplicate site
      "svc 7 127.0.0.1:9200\n",                        // unknown site
      "svc 0 127.0.0.1\n",                             // bad address
      "svc 0\n",                                       // missing address
      "svc zero 127.0.0.1:9200\n",                     // non-numeric site
  };
  for (const char* lines : bad) {
    std::istringstream in(std::string(base) + lines);
    NodeConfig config;
    std::string error;
    EXPECT_FALSE(net::parse_node_config(in, config, error)) << lines;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetConfig, RejectsMalformedFiles) {
  const char* bad[] = {
      "peer 0 127.0.0.1:9000\npeer 1 127.0.0.1:9001\n",  // no self
      "self 0\npeer 1 127.0.0.1:9001\npeer 2 127.0.0.1:9002\n",  // self absent
      "self 0\npeer 0 127.0.0.1:9000\n",                    // fewer than 2
      "self 0\npeer 0 127.0.0.1:9000\npeer 0 127.0.0.1:1\n",  // duplicate
      "self 0\nbogus line\npeer 0 127.0.0.1:9000\n",          // unknown keyword
      "self 0\npeer 0 127.0.0.1\npeer 1 127.0.0.1:1\n",       // bad address
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    NodeConfig config;
    std::string error;
    EXPECT_FALSE(net::parse_node_config(in, config, error)) << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(EventLoop, ClockAdvancesMonotonically) {
  EventLoop loop;
  const SimTime t0 = loop.now();
  loop.run_for(5 * kMillisecond);
  const SimTime t1 = loop.now();
  EXPECT_GE(t1, t0 + 4 * kMillisecond);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> fired;
  loop.set_timer(20 * kMillisecond, [&]() { fired.push_back(2); });
  loop.set_timer(5 * kMillisecond, [&]() { fired.push_back(1); });
  // Same deadline: insertion order breaks the tie, as in the simulator.
  loop.set_timer(30 * kMillisecond, [&]() { fired.push_back(3); });
  loop.set_timer(30 * kMillisecond, [&]() {
    fired.push_back(4);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  bool fired = false;
  const runtime::TimerId id =
      loop.set_timer(1 * kMillisecond, [&]() { fired = true; });
  int kept_fired = 0;
  const runtime::TimerId kept =
      loop.set_timer(2 * kMillisecond, [&]() { ++kept_fired; });
  loop.cancel_timer(id);
  // Cancel is exact and idempotent: a second cancel of the same id and a
  // cancel of an id never handed out touch no other timer.
  loop.cancel_timer(id);
  loop.cancel_timer(kept + 1000);
  EXPECT_EQ(loop.pending_timers(), 1u);
  loop.run_for(10 * kMillisecond);
  EXPECT_FALSE(fired);
  EXPECT_EQ(kept_fired, 1);
  // So is a cancel of an id that already fired.
  bool later_fired = false;
  loop.set_timer(1 * kMillisecond, [&]() { later_fired = true; });
  loop.cancel_timer(kept);
  EXPECT_EQ(loop.pending_timers(), 1u);
  loop.run_for(10 * kMillisecond);
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(kept_fired, 1);
}

TEST(EventLoop, CallbackCancelsATimerDueInTheSameBatch) {
  // Both timers are due when the loop first looks at its queue; the
  // first one's callback cancels the second, which must never run.
  EventLoop loop;
  std::vector<int> fired;
  runtime::TimerId second = 0;
  loop.set_timer(1 * kMillisecond, [&]() {
    fired.push_back(1);
    loop.cancel_timer(second);
  });
  second = loop.set_timer(1 * kMillisecond, [&]() { fired.push_back(2); });
  loop.set_timer(1 * kMillisecond, [&]() { fired.push_back(3); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, PostRunsOnLoopThread) {
  EventLoop loop;
  int ran = 0;
  loop.post([&]() { ++ran; });
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(ran, 1);
}

TEST(EventLoop, RunForDrainsPostedWorkEvenAtAnExpiredDeadline) {
  // A post() landing just before run_for's deadline must not be dropped:
  // run_for(0) exits its loop before any step(), so only the final drain
  // can run the closure. Regression test — run_for used to return without
  // that drain and the closure was silently lost.
  EventLoop loop;
  int ran = 0;
  loop.post([&]() { ++ran; });
  loop.run_for(0);
  EXPECT_EQ(ran, 1);
}

TEST(EventLoop, CancelledTimersDoNotGrowTheHeapWithoutBound) {
  // Set/cancel churn (svc's per-request timeouts: one armed and cancelled
  // per request) must leave nothing behind: cancel erases the timer
  // itself, so only the one live timer stays queued.
  EventLoop loop;
  const runtime::TimerId keep =
      loop.set_timer(3'600'000'000, []() { FAIL() << "must not fire"; });
  for (int i = 0; i < 5000; ++i) {
    const runtime::TimerId id = loop.set_timer(1'000'000'000, []() {});
    loop.cancel_timer(id);
  }
  EXPECT_EQ(loop.pending_timers(), 1u);
  loop.cancel_timer(keep);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, CancelledTimerLeavesNoQueuedEntryBehind) {
  // A cancelled timer leaves the queue at once, so its deadline can never
  // bound a later wait, and nothing of it is left after the loop runs.
  EventLoop loop;
  loop.cancel_timer(loop.set_timer(3'600'000'000, []() {}));
  EXPECT_EQ(loop.pending_timers(), 0u);
  loop.run_for(kMillisecond);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, StaleEventDoesNotDispatchToReusedFdNumber) {
  // Within one epoll batch: handler A closes fd B (whose event is queued
  // later in the same batch) and a new registration reuses B's number.
  // The queued event belongs to the dead registration; dispatching it to
  // the new handler would hand one connection's readiness to another.
  // The per-fd generation check must skip it.
  EventLoop loop;
  int first[2], second[2], fresh[2];
  ASSERT_EQ(::pipe2(first, O_NONBLOCK | O_CLOEXEC), 0);
  ASSERT_EQ(::pipe2(second, O_NONBLOCK | O_CLOEXEC), 0);
  ASSERT_EQ(::pipe2(fresh, O_NONBLOCK | O_CLOEXEC), 0);

  bool swapped = false;
  int new_handler_calls = 0;
  auto on_ready = [&](int self_fd, int other_fd) {
    char c;
    while (::read(self_fd, &c, 1) > 0) {
    }
    if (swapped) return;
    swapped = true;
    // Close the other registration and reuse its fd *number* for a pipe
    // with nothing to read (dup2 closes other_fd and re-targets it).
    loop.remove_fd(other_fd);
    ASSERT_EQ(::dup2(fresh[0], other_fd), other_fd);
    loop.add_fd(other_fd, [&, other_fd]() {
      ++new_handler_calls;
      char drop;
      while (::read(other_fd, &drop, 1) > 0) {
      }
    });
  };
  loop.add_fd(first[0], [&]() { on_ready(first[0], second[0]); });
  loop.add_fd(second[0], [&]() { on_ready(second[0], first[0]); });

  // Make both ends readable before the loop runs, so both events arrive
  // in one epoll batch and one handler runs while the other's event is
  // still queued.
  ASSERT_EQ(::write(first[1], "x", 1), 1);
  ASSERT_EQ(::write(second[1], "x", 1), 1);
  loop.run_for(10 * kMillisecond);
  ASSERT_TRUE(swapped);
  EXPECT_EQ(new_handler_calls, 0) << "stale event dispatched to reused fd";

  // The new registration is live: actual readiness still reaches it.
  ASSERT_EQ(::write(fresh[1], "y", 1), 1);
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(new_handler_calls, 1);

  for (const int fd : {first[0], first[1], second[0], second[1], fresh[0],
                       fresh[1]}) {
    ::close(fd);
  }
}

TEST(EventLoop, LateTimerIsRecorded) {
  // A callback that blocks the loop for 5 ms delays a timer due 1 ms in;
  // the loop's own lateness histogram must see that delay.
  EventLoop loop;
  loop.set_timer(0, []() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  bool fired = false;
  loop.set_timer(1 * kMillisecond, [&]() { fired = true; });
  loop.run_for(20 * kMillisecond);
  ASSERT_TRUE(fired);
  ASSERT_EQ(loop.late_us().count(), 2u);
  EXPECT_GE(loop.late_us().max(), 4.0 * kMillisecond);
}

TEST(EventLoop, SubMillisecondTimerIsNotRoundedUp) {
  // On an idle loop a 200 µs timer should fire within tens of µs of its
  // deadline. A wait rounded up to whole milliseconds would make each of
  // them ~800 µs late.
  EventLoop loop;
  int left = 20;
  std::function<void()> rearm = [&]() {
    if (--left == 0) {
      loop.stop();
      return;
    }
    loop.set_timer(200 * kMicrosecond, rearm);
  };
  loop.set_timer(200 * kMicrosecond, rearm);
  loop.run_for(1 * kSecond);
  ASSERT_EQ(left, 0);
  ASSERT_EQ(loop.late_us().count(), 20u);
  EXPECT_LT(loop.late_us().quantile(0.5), 500.0);
}

TEST(TcpListener, AcceptedSocketsDisableNagle) {
  // Every accepted front-door socket sends replies at once: Nagle would
  // hold a small reply until the client's next segment carries an ACK.
  EventLoop loop;
  int accepted = 0;
  int nodelay = -1;
  net::TcpListener listener(
      loop, INADDR_LOOPBACK, 0,
      net::TcpListener::Callbacks{
          .on_connection =
              [&](int fd) {
                ++accepted;
                socklen_t len = sizeof(nodelay);
                EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                                       &len),
                          0);
                ::close(fd);
              }},
      "test");
  const int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener.bound_port());
  ASSERT_EQ(
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  for (int i = 0; i < 100 && accepted == 0; ++i)
    loop.run_for(10 * kMillisecond);
  ::close(client);
  ASSERT_EQ(accepted, 1);
  EXPECT_EQ(nodelay, 1);
}

class UdpPair : public ::testing::Test {
 protected:
  UdpPair() {
    const std::vector<PeerAddr> addrs = {
        {INADDR_LOOPBACK, free_port()},
        {INADDR_LOOPBACK, free_port()},
    };
    a_ = std::make_unique<UdpTransport>(loop_, config_for(SiteId{0}, addrs));
    b_ = std::make_unique<UdpTransport>(loop_, config_for(SiteId{1}, addrs));
  }

  /// Runs the loop until `pred()` or ~1s of wall time.
  bool await(const std::function<bool()>& pred) {
    for (int i = 0; i < 100 && !pred(); ++i) loop_.run_for(10 * kMillisecond);
    return pred();
  }

  EventLoop loop_;
  std::unique_ptr<UdpTransport> a_;
  std::unique_ptr<UdpTransport> b_;
};

TEST_F(UdpPair, DeliversPayloadWithSenderIdentity) {
  std::vector<std::pair<ProcessId, Bytes>> got;
  b_->set_deliver([&](ProcessId from, const Bytes& payload) {
    got.emplace_back(from, payload);
  });
  a_->send(b_->self(), Bytes{1, 2, 3});
  ASSERT_TRUE(await([&]() { return !got.empty(); }));
  EXPECT_EQ(got[0].first, a_->self());
  EXPECT_EQ(got[0].second, (Bytes{1, 2, 3}));
  EXPECT_EQ(b_->stats().datagrams_received, 1u);
}

TEST_F(UdpPair, SendMultiSharesOneBuffer) {
  int got = 0;
  b_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  SharedBytes frame(Bytes{9, 9, 9});
  a_->send_multi({a_->self(), b_->self()}, frame);
  // The copy to self goes over the real socket too.
  a_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  ASSERT_TRUE(await([&]() { return got == 2; }));
  EXPECT_EQ(a_->stats().payloads_shared, 2u);
  EXPECT_EQ(a_->stats().payload_copies, 0u);
}

TEST_F(UdpPair, GroupFramesDemuxToTheirSinks) {
  // One socket, many groups: each frame lands at the sink registered for
  // the group stamped in its envelope, and nowhere else.
  std::vector<Bytes> got0, got1;
  b_->set_deliver(GroupId{0},
                  [&](ProcessId, const Bytes& p) { got0.push_back(p); });
  b_->set_deliver(GroupId{1},
                  [&](ProcessId, const Bytes& p) { got1.push_back(p); });
  a_->send(GroupId{1}, b_->self(), Bytes{11});
  a_->send(GroupId{0}, b_->self(), Bytes{10});
  ASSERT_TRUE(await([&]() { return got0.size() + got1.size() == 2; }));
  ASSERT_EQ(got0.size(), 1u);
  ASSERT_EQ(got1.size(), 1u);
  EXPECT_EQ(got0[0], Bytes{10});
  EXPECT_EQ(got1[0], Bytes{11});
  // Wire accounting is per group on both sides.
  EXPECT_EQ(a_->group_stats(GroupId{0}).frames_sent, 1u);
  EXPECT_EQ(a_->group_stats(GroupId{1}).frames_sent, 1u);
  EXPECT_EQ(b_->group_stats(GroupId{0}).frames_received, 1u);
  EXPECT_EQ(b_->group_stats(GroupId{1}).frames_received, 1u);
}

TEST_F(UdpPair, UnknownGroupFramesAreDropped) {
  int got = 0;
  b_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  a_->send(GroupId{7}, b_->self(), Bytes{1});
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_unknown_group == 1; }));
  EXPECT_EQ(got, 0);
  // Unregistering turns a known group back into an unknown one — the
  // per-group teardown path NetRuntime::unhost_group relies on.
  b_->clear_deliver(kDefaultGroup);
  a_->send(b_->self(), Bytes{2});
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_unknown_group == 2; }));
  EXPECT_EQ(got, 0);
}

TEST_F(UdpPair, GroupChannelStampsItsGroup) {
  // The runtime::Transport facade a hosted group sees: sends go out
  // stamped with its group id, so they demux to the peer's same-group
  // instance.
  net::GroupChannel channel(*a_, GroupId{3});
  int got = 0;
  b_->set_deliver(GroupId{3}, [&](ProcessId, const Bytes&) { ++got; });
  channel.send(b_->self(), Bytes{1});
  channel.send_to_site(SiteId{1}, Bytes{2});
  channel.send_multi({b_->self()}, SharedBytes(Bytes{3}));
  ASSERT_TRUE(await([&]() { return got == 3; }));
  EXPECT_EQ(a_->group_stats(GroupId{3}).frames_sent, 3u);
}

TEST_F(UdpPair, StaleIncarnationIsDropped) {
  int got = 0;
  b_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  // Address a previous incarnation of b's site: must die at the receiver.
  a_->send(ProcessId{SiteId{1}, 999}, Bytes{1});
  ASSERT_TRUE(
      await([&]() { return b_->stats().dropped_stale_incarnation == 1; }));
  EXPECT_EQ(got, 0);
  // Site-addressed traffic (incarnation 0 in the envelope) still lands.
  a_->send_to_site(SiteId{1}, Bytes{2});
  ASSERT_TRUE(await([&]() { return got == 1; }));
}

TEST_F(UdpPair, MalformedDatagramsAreCountedAndDropped) {
  int got = 0;
  b_->set_deliver([&](ProcessId, const Bytes&) { ++got; });

  // Raw socket speaking garbage from an unconfigured source port.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dest.sin_port = htons(b_->config().self_addr().port);
  const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef};
  ::sendto(fd, junk, sizeof(junk), 0, reinterpret_cast<sockaddr*>(&dest),
           sizeof(dest));
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_unknown_peer == 1; }));
  ::close(fd);

  // A well-formed header whose claimed site does not match the source
  // address (spoof) — must be dropped as malformed.
  std::uint8_t spoof[net::kHeaderSize];
  net::encode_header(net::DatagramHeader{ProcessId{SiteId{1}, 1}, 0}, spoof);
  ::sendto(a_->fd(), spoof, sizeof(spoof), 0,
           reinterpret_cast<sockaddr*>(&dest), sizeof(dest));
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_malformed == 1; }));

  // A runt datagram from a configured peer.
  const std::uint8_t runt[] = {0x45};
  ::sendto(a_->fd(), runt, sizeof(runt), 0, reinterpret_cast<sockaddr*>(&dest),
           sizeof(dest));
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_malformed == 2; }));
  EXPECT_EQ(got, 0);
}

TEST_F(UdpPair, DropRulesEmulatePartition) {
  int got = 0;
  b_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  b_->set_drop_site(SiteId{0}, true);
  a_->send(b_->self(), Bytes{1});
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_rule == 1; }));
  EXPECT_EQ(got, 0);
  b_->set_drop_site(SiteId{0}, false);
  a_->send(b_->self(), Bytes{2});
  ASSERT_TRUE(await([&]() { return got == 1; }));

  // Sender-side drop rules stop traffic before it reaches the wire.
  const auto sent_before = a_->stats().datagrams_sent;
  a_->set_drop_all(true);
  a_->send(b_->self(), Bytes{3});
  EXPECT_EQ(a_->stats().datagrams_sent, sent_before);
  EXPECT_EQ(a_->stats().dropped_rule, 1u);
}

TEST_F(UdpPair, OversizePayloadIsDroppedAndCounted) {
  // A frame above one datagram is dropped at enqueue, counted, and named
  // in the warning by group and leading channel byte (3 = gms Data); the
  // transport keeps sending what does fit.
  std::vector<Bytes> got;
  b_->set_deliver(GroupId{4},
                  [&](ProcessId, const Bytes& p) { got.push_back(p); });
  Bytes oversize(net::kMaxPayload + 1, 0);
  oversize[0] = 3;
  const log::Level saved = log::level();
  log::set_level(log::Level::Warn);
  ::testing::internal::CaptureStderr();
  a_->send(GroupId{4}, b_->self(), std::move(oversize));
  const std::string warning = ::testing::internal::GetCapturedStderr();
  log::set_level(saved);
  EXPECT_EQ(a_->stats().dropped_oversize, 1u);
  EXPECT_EQ(a_->pending_frames(), 0u);
  EXPECT_NE(warning.find("group 4"), std::string::npos) << warning;
  EXPECT_NE(warning.find("channel 3"), std::string::npos) << warning;
  a_->flush();
  EXPECT_EQ(a_->stats().datagrams_sent, 0u);

  a_->send(GroupId{4}, b_->self(), Bytes{3, 1});
  ASSERT_TRUE(await([&]() { return got.size() == 1; }));
  EXPECT_EQ(got[0], (Bytes{3, 1}));
  EXPECT_EQ(a_->stats().dropped_oversize, 1u);
  EXPECT_EQ(a_->stats().datagrams_sent, 1u);
}

TEST_F(UdpPair, ExplicitFlushDrainsTheSendQueue) {
  // send() only queues; flush() is what reaches the wire. The loop's
  // flush hook calls it every step, but it is also a public, synchronous
  // operation.
  a_->send(b_->self(), Bytes{1});
  EXPECT_EQ(a_->pending_frames(), 1u);
  EXPECT_EQ(a_->stats().datagrams_sent, 0u);
  a_->flush();
  EXPECT_EQ(a_->pending_frames(), 0u);
  EXPECT_EQ(a_->stats().datagrams_sent, 1u);
  EXPECT_EQ(a_->stats().frames_sent, 1u);
  EXPECT_EQ(a_->stats().sendmsg_calls, 1u);
}

TEST_F(UdpPair, CoalescesSmallFramesIntoOneDatagramInOrder) {
  std::vector<Bytes> got;
  b_->set_deliver(
      [&](ProcessId, const Bytes& payload) { got.push_back(payload); });
  std::vector<Bytes> sent;
  for (std::uint8_t i = 0; i < 8; ++i) {
    sent.push_back(Bytes{i, static_cast<std::uint8_t>(i + 100)});
    a_->send(b_->self(), sent.back());
  }
  ASSERT_TRUE(await([&]() { return got.size() == 8; }));
  EXPECT_EQ(got, sent);  // same frames, same order
  // One tick's burst to one peer = one coalesced datagram, one syscall.
  EXPECT_EQ(a_->stats().datagrams_sent, 1u);
  EXPECT_EQ(a_->stats().frames_sent, 8u);
  EXPECT_EQ(a_->stats().datagrams_coalesced, 1u);
  EXPECT_EQ(a_->stats().sendmsg_calls, 1u);
  EXPECT_EQ(b_->stats().datagrams_received, 1u);
  EXPECT_EQ(b_->stats().frames_received, 8u);
}

TEST_F(UdpPair, CoalescingOffSendsOneDatagramPerFrameInOneSyscall) {
  ASSERT_TRUE(a_->coalescing());  // config default
  a_->set_coalescing(false);
  std::vector<Bytes> got;
  b_->set_deliver(
      [&](ProcessId, const Bytes& payload) { got.push_back(payload); });
  for (std::uint8_t i = 0; i < 5; ++i) a_->send(b_->self(), Bytes{i});
  ASSERT_TRUE(await([&]() { return got.size() == 5; }));
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(got[i], Bytes{i});
  // Five plain datagrams — but still one sendmmsg for the whole flush.
  EXPECT_EQ(a_->stats().datagrams_sent, 5u);
  EXPECT_EQ(a_->stats().datagrams_coalesced, 0u);
  EXPECT_EQ(a_->stats().sendmsg_calls, 1u);
  EXPECT_EQ(b_->stats().datagrams_received, 5u);
  EXPECT_EQ(b_->stats().frames_received, 5u);
}

TEST_F(UdpPair, FlushBatchesMultipleDestinationsIntoOneSyscall) {
  // Frames for different (site, incarnation) keys cannot share a
  // datagram, but they do share the flush's sendmmsg.
  int got = 0;
  a_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  b_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  a_->send(b_->self(), Bytes{1});        // incarnation-addressed to b
  a_->send_to_site(SiteId{1}, Bytes{2});  // site-addressed to b (key differs)
  a_->send(a_->self(), Bytes{3});        // loopback to self
  a_->flush();
  EXPECT_EQ(a_->stats().datagrams_sent, 3u);
  EXPECT_EQ(a_->stats().sendmsg_calls, 1u);
  EXPECT_TRUE(await([&]() { return got == 3; }));
}

TEST_F(UdpPair, MalformedCoalescedDatagramIsRejectedWhole) {
  // A coalesced ("EVSB") datagram whose sub-frame framing is broken must
  // drop in full — even when an intact frame precedes the damage.
  int got = 0;
  b_->set_deliver([&](ProcessId, const Bytes&) { ++got; });
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dest.sin_port = htons(b_->config().self_addr().port);

  // Header claims coalesced; payload = [len=2]["hi"][len=100](nothing).
  std::vector<std::uint8_t> datagram(net::kHeaderSize);
  net::encode_header(
      net::DatagramHeader{.from = a_->self(),
                          .group = kDefaultGroup,
                          .coalesced = true},
      datagram.data());
  const std::uint8_t tail[] = {2, 0, 0, 0, 'h', 'i', 100, 0, 0, 0};
  datagram.insert(datagram.end(), tail, tail + sizeof(tail));
  ::sendto(a_->fd(), datagram.data(), datagram.size(), 0,
           reinterpret_cast<sockaddr*>(&dest), sizeof(dest));
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_malformed == 1; }));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(b_->stats().frames_received, 0u);
  EXPECT_EQ(b_->stats().datagrams_received, 0u);

  // An "EVSB" envelope with zero sub-frames is malformed too.
  datagram.resize(net::kHeaderSize);
  ::sendto(a_->fd(), datagram.data(), datagram.size(), 0,
           reinterpret_cast<sockaddr*>(&dest), sizeof(dest));
  ASSERT_TRUE(await([&]() { return b_->stats().dropped_malformed == 2; }));
  EXPECT_EQ(got, 0);
}

TEST_F(UdpPair, ReceiveErrorsCountAsRecvErrorsNotSendErrors) {
  // Sabotage the socket out from under the transport: after dup2,
  // recvmmsg on the fd fails with ENOTSOCK. The readable path must
  // count that as a receive error — it used to land in send_errors.
  const int null_fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(null_fd, 0);
  ASSERT_EQ(::dup2(null_fd, b_->fd()), b_->fd());
  ::close(null_fd);
  net::UdpTransportTestHook::inject_readable(*b_);
  EXPECT_EQ(b_->stats().recv_errors, 1u);
  EXPECT_EQ(b_->stats().send_errors, 0u);
}

TEST(NetConfig, ParsesCoalesceToggle) {
  const char* base =
      "self 0\n"
      "peer 0 127.0.0.1:9000\n"
      "peer 1 127.0.0.1:9001\n";
  {
    std::istringstream in(base);
    NodeConfig config;
    std::string error;
    ASSERT_TRUE(net::parse_node_config(in, config, error)) << error;
    EXPECT_TRUE(config.coalesce);  // default on
  }
  {
    std::istringstream in(std::string(base) + "coalesce off\n");
    NodeConfig config;
    std::string error;
    ASSERT_TRUE(net::parse_node_config(in, config, error)) << error;
    EXPECT_FALSE(config.coalesce);
  }
  {
    std::istringstream in(std::string(base) + "coalesce maybe\n");
    NodeConfig config;
    std::string error;
    EXPECT_FALSE(net::parse_node_config(in, config, error));
    EXPECT_FALSE(error.empty());
  }
}

}  // namespace
}  // namespace evs::test
