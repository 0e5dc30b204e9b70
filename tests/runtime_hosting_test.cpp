// Multi-group hosting tests: one NetRuntime (one event loop, one socket,
// one timer queue, one store) hosting several group instances — per-group
// demux in and out, per-group store namespacing, per-group teardown that
// leaves nothing behind in the shared timer queue (the failing-before timer
// lifecycle bug), and halt semantics (the loop stops only when the last
// alive group halts).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <vector>

#include "net/event_loop.hpp"
#include "net/runtime.hpp"
#include "net/udp_transport.hpp"

namespace evs::test {
namespace {

using net::EventLoop;
using net::NetRuntime;
using net::NodeConfig;
using net::PeerAddr;
using net::UdpTransport;

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

NodeConfig config_for(SiteId self, const std::vector<PeerAddr>& addrs) {
  NodeConfig config;
  config.self = self;
  config.incarnation = 1;
  for (std::size_t i = 0; i < addrs.size(); ++i)
    config.peers.emplace(SiteId{static_cast<std::uint32_t>(i)}, addrs[i]);
  return config;
}

/// Minimal hosted node: counts lifecycle events and widens the protected
/// runtime surface so tests can drive sends / timers / halt directly.
class CountingNode : public runtime::Node {
 public:
  int started = 0;
  int crashed = 0;
  int fired = 0;
  std::vector<Bytes> inbox;

  void on_start() override { ++started; }
  void on_crash() override { ++crashed; }
  void on_message(ProcessId, const Bytes& payload) override {
    inbox.push_back(payload);
  }

  using runtime::Node::halt;
  using runtime::Node::send;
  using runtime::Node::set_timer;
  using runtime::Node::store;
};

/// One NetRuntime (site 0) plus a raw peer transport (site 1) sharing the
/// runtime's loop, so both ends progress under a single run_for.
class MultiGroupHost : public ::testing::Test {
 protected:
  MultiGroupHost() {
    const std::vector<PeerAddr> addrs = {
        {INADDR_LOOPBACK, free_port()},
        {INADDR_LOOPBACK, free_port()},
    };
    rt_ = std::make_unique<NetRuntime>(config_for(SiteId{0}, addrs));
    peer_ = std::make_unique<UdpTransport>(rt_->loop(),
                                           config_for(SiteId{1}, addrs));
  }

  bool await(const std::function<bool()>& pred) {
    for (int i = 0; i < 100 && !pred(); ++i)
      rt_->loop().run_for(10 * kMillisecond);
    return pred();
  }

  std::unique_ptr<NetRuntime> rt_;
  std::unique_ptr<UdpTransport> peer_;
};

TEST_F(MultiGroupHost, GroupsShareOneLoopAndSocketButStayIsolated) {
  CountingNode g1, g2;
  rt_->host_group(GroupId{1}, g1);
  rt_->host_group(GroupId{2}, g2);
  EXPECT_EQ(g1.started, 1);
  EXPECT_EQ(rt_->hosted_groups(), (std::vector<GroupId>{1, 2}));
  EXPECT_EQ(rt_->group_node(GroupId{1}), &g1);
  EXPECT_EQ(rt_->group_node(kDefaultGroup), nullptr);

  // Inbound demux: a frame lands only at the instance its envelope names.
  peer_->send(GroupId{1}, rt_->self(), Bytes{11});
  ASSERT_TRUE(await([&]() { return g1.inbox.size() == 1; }));
  EXPECT_EQ(g1.inbox[0], Bytes{11});
  EXPECT_TRUE(g2.inbox.empty());
  peer_->send(GroupId{2}, rt_->self(), Bytes{22});
  ASSERT_TRUE(await([&]() { return g2.inbox.size() == 1; }));
  EXPECT_EQ(g1.inbox.size(), 1u);

  // Outbound stamping: each node's sends leave on the shared socket
  // carrying its own group id.
  std::vector<GroupId> seen;
  peer_->set_deliver(GroupId{1},
                     [&](ProcessId, const Bytes&) { seen.push_back(1); });
  peer_->set_deliver(GroupId{2},
                     [&](ProcessId, const Bytes&) { seen.push_back(2); });
  g1.send(peer_->self(), Bytes{1});
  ASSERT_TRUE(await([&]() { return seen.size() == 1; }));
  g2.send(peer_->self(), Bytes{2});
  ASSERT_TRUE(await([&]() { return seen.size() == 2; }));
  EXPECT_EQ(seen, (std::vector<GroupId>{1, 2}));
  EXPECT_EQ(rt_->transport().group_stats(GroupId{1}).frames_sent, 1u);
  EXPECT_EQ(rt_->transport().group_stats(GroupId{2}).frames_sent, 1u);
}

TEST_F(MultiGroupHost, PerGroupStoresNamespaceOneSiteStore) {
  CountingNode g1, g2;
  rt_->host_group(GroupId{1}, g1);
  rt_->host_group(GroupId{2}, g2);
  g1.store().put("epoch", Bytes{1});
  g2.store().put("epoch", Bytes{2});
  // Same logical key, no collision: each instance reads its own value...
  EXPECT_EQ(g1.store().get("epoch"), Bytes{1});
  EXPECT_EQ(g2.store().get("epoch"), Bytes{2});
  // ...because the site store holds them under per-group prefixes.
  EXPECT_EQ(rt_->store().get("g1/epoch"), Bytes{1});
  EXPECT_EQ(rt_->store().get("g2/epoch"), Bytes{2});
  EXPECT_FALSE(rt_->store().contains("epoch"));
}

TEST_F(MultiGroupHost, UnhostTearsDownOneGroupWithoutDisturbingOthers) {
  CountingNode g1, g2;
  rt_->host_group(GroupId{1}, g1);
  rt_->host_group(GroupId{2}, g2);
  g1.set_timer(5 * kMillisecond, [&]() { ++g1.fired; });
  EXPECT_EQ(rt_->loop().pending_timers(), 1u);

  rt_->unhost_group(GroupId{1});
  EXPECT_FALSE(g1.alive());
  EXPECT_TRUE(g2.alive());
  EXPECT_EQ(rt_->hosted_groups(), (std::vector<GroupId>{2}));
  // The torn-down group's timer left the shared timer queue with it.
  EXPECT_EQ(rt_->loop().pending_timers(), 0u);
  rt_->loop().run_for(20 * kMillisecond);
  EXPECT_EQ(g1.fired, 0);

  // Its frames are now unknown-group drops; the other group still serves.
  peer_->send(GroupId{1}, rt_->self(), Bytes{1});
  ASSERT_TRUE(await(
      [&]() { return rt_->transport().stats().dropped_unknown_group == 1; }));
  EXPECT_TRUE(g1.inbox.empty());
  peer_->send(GroupId{2}, rt_->self(), Bytes{2});
  ASSERT_TRUE(await([&]() { return g2.inbox.size() == 1; }));
}

TEST_F(MultiGroupHost, DestroyedNodeLeavesNoTimerBehindInTheSharedWheel) {
  // Failing-before bug: a group instance destroyed mid-run left its timer
  // callbacks (capturing `this`) armed in the host's shared timer queue — a
  // use-after-free when they fired. detach()/~Node must cancel them.
  int fired = 0;
  auto node = std::make_unique<CountingNode>();
  rt_->host_group(GroupId{3}, *node);
  node->set_timer(5 * kMillisecond, [&fired]() { ++fired; });
  node->set_timer(8 * kMillisecond, [&fired]() { ++fired; });
  EXPECT_EQ(rt_->loop().pending_timers(), 2u);
  rt_->unhost_group(GroupId{3});
  node.reset();  // the timer queue outlives the node
  EXPECT_EQ(rt_->loop().pending_timers(), 0u);
  rt_->loop().run_for(20 * kMillisecond);
  EXPECT_EQ(fired, 0);
}

TEST_F(MultiGroupHost, BareDestructionCancelsTimersToo) {
  // Same property without the runtime's unhost path: a bound node that
  // goes out of scope with timers armed must cancel them itself.
  int fired = 0;
  net::GroupChannel channel(rt_->transport(), GroupId{9});
  {
    CountingNode n;
    runtime::Env env;
    env.transport = &channel;
    env.clock = &rt_->loop();
    env.timers = &rt_->loop();
    n.bind(std::move(env), ProcessId{SiteId{9}, 1});
    n.set_timer(5 * kMillisecond, [&fired]() { ++fired; });
    EXPECT_EQ(rt_->loop().pending_timers(), 1u);
  }
  EXPECT_EQ(rt_->loop().pending_timers(), 0u);
  rt_->loop().run_for(20 * kMillisecond);
  EXPECT_EQ(fired, 0);
}

TEST_F(MultiGroupHost, LoopStopsOnlyWhenTheLastAliveGroupHalts) {
  CountingNode g1, g2;
  rt_->host_group(GroupId{1}, g1);
  rt_->host_group(GroupId{2}, g2);

  g1.halt();
  EXPECT_EQ(g1.crashed, 1);
  EXPECT_EQ(rt_->hosted_groups(), (std::vector<GroupId>{2}));
  EXPECT_FALSE(rt_->loop().stopped());
  // The survivor still serves over the still-running loop.
  peer_->send(GroupId{2}, rt_->self(), Bytes{7});
  ASSERT_TRUE(await([&]() { return g2.inbox.size() == 1; }));

  g2.halt();
  EXPECT_EQ(g2.crashed, 1);
  EXPECT_TRUE(rt_->hosted_groups().empty());
  EXPECT_TRUE(rt_->loop().stopped());
}

}  // namespace
}  // namespace evs::test
