#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "order/layers.hpp"
#include "order/vector_clock.hpp"
#include "sim/world.hpp"

namespace evs::order {
namespace {

TEST(VectorClock, MergeTakesComponentMax) {
  VectorClock a(3);
  VectorClock b(3);
  a.set(0, 5);
  b.set(1, 7);
  a.merge(b);
  EXPECT_EQ(a.at(0), 5u);
  EXPECT_EQ(a.at(1), 7u);
  EXPECT_EQ(a.at(2), 0u);
}

TEST(VectorClock, LeqIsComponentwise) {
  VectorClock a(2);
  VectorClock b(2);
  b.set(0, 1);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  a.set(1, 2);
  EXPECT_FALSE(a.leq(b));
}

TEST(VectorClock, DeliverableRequiresExactlyNextFromSender) {
  VectorClock delivered(2);  // nothing delivered yet
  VectorClock msg(2);
  msg.set(0, 1);  // first message from rank 0
  EXPECT_TRUE(msg.deliverable_at(0, delivered));
  msg.set(0, 2);  // second message — not yet
  EXPECT_FALSE(msg.deliverable_at(0, delivered));
}

TEST(VectorClock, DeliverableRequiresDependenciesCovered) {
  VectorClock delivered(2);
  VectorClock msg(2);
  msg.set(1, 1);
  msg.set(0, 3);  // depends on 3 messages from rank 0
  EXPECT_FALSE(msg.deliverable_at(1, delivered));
  delivered.set(0, 3);
  EXPECT_TRUE(msg.deliverable_at(1, delivered));
}

TEST(VectorClock, CodecRoundTrip) {
  VectorClock vc(4);
  vc.set(2, 100);
  Encoder enc;
  vc.encode(enc);
  Decoder dec(enc.buffer());
  EXPECT_EQ(VectorClock::decode(dec), vc);
}

// ------------------------------------------------------- layer fixtures ---

class OrderRecorder : public vsync::Delegate {
 public:
  struct Delivery {
    ProcessId sender;
    std::string payload;
  };
  void on_view(const gms::View& view, const vsync::InstallInfo&) override {
    views.push_back(view);
  }
  void on_deliver(ProcessId sender, const Bytes& payload) override {
    deliveries.push_back({sender, to_string(payload)});
  }
  std::vector<gms::View> views;
  std::vector<Delivery> deliveries;
};

struct Node {
  vsync::Endpoint* endpoint = nullptr;
  std::unique_ptr<OrderRecorder> recorder;
  std::unique_ptr<CausalLayer> layer;
};

struct LayerCluster {
  explicit LayerCluster(std::size_t n, std::uint64_t seed = 1,
                        sim::NetworkConfig net = {})
      : world(seed, net) {
    sites = world.add_sites(n);
    vsync::EndpointConfig cfg;
    cfg.universe = sites;
    for (const SiteId site : sites) {
      Node node;
      node.endpoint = &world.spawn<vsync::Endpoint>(site, cfg);
      node.recorder = std::make_unique<OrderRecorder>();
      node.layer = std::make_unique<CausalLayer>(*node.endpoint, *node.recorder);
      nodes.push_back(std::move(node));
    }
  }

  bool await_group() {
    const SimTime deadline = world.scheduler().now() + 60 * kSecond;
    while (world.scheduler().now() < deadline) {
      bool ok = true;
      for (auto& node : nodes) {
        if (node.endpoint->view().size() != nodes.size() ||
            node.endpoint->blocked()) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
      world.run_for(10 * kMillisecond);
    }
    return false;
  }

  sim::World world;
  std::vector<SiteId> sites;
  std::vector<Node> nodes;
};

// Drives a causal chain: node 0 sends "ping", node 1 replies "pong" as
// soon as it delivers the ping. Every member must deliver ping before pong.
void run_causal_chain(LayerCluster& c, int rounds) {
  ASSERT_TRUE(c.await_group());
  int violations = 0;
  for (int r = 0; r < rounds; ++r) {
    const std::string ping = "ping-" + std::to_string(r);
    const std::string pong = "pong-" + std::to_string(r);
    c.nodes[0].layer->multicast(to_bytes(ping));
    // Node 1 replies the moment it sees the ping.
    const SimTime deadline = c.world.scheduler().now() + 10 * kSecond;
    bool replied = false;
    while (c.world.scheduler().now() < deadline) {
      c.world.run_for(1 * kMillisecond);
      if (!replied) {
        for (const auto& d : c.nodes[1].recorder->deliveries) {
          if (d.payload == ping) {
            c.nodes[1].layer->multicast(to_bytes(pong));
            replied = true;
            break;
          }
        }
      }
      // Wait until everyone saw the pong.
      bool all = replied;
      for (auto& node : c.nodes) {
        bool saw = false;
        for (const auto& d : node.recorder->deliveries)
          if (d.payload == pong) saw = true;
        all = all && saw;
      }
      if (all) break;
    }
    for (auto& node : c.nodes) {
      int ping_at = -1;
      int pong_at = -1;
      const auto& ds = node.recorder->deliveries;
      for (std::size_t i = 0; i < ds.size(); ++i) {
        if (ds[i].payload == ping) ping_at = static_cast<int>(i);
        if (ds[i].payload == pong) pong_at = static_cast<int>(i);
      }
      ASSERT_GE(ping_at, 0);
      ASSERT_GE(pong_at, 0);
      if (pong_at < ping_at) ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST(CausalLayer, ReplyNeverOvertakesItsCause) {
  sim::NetworkConfig net;
  net.mean_jitter_us = 20'000.0;  // heavy jitter to tempt reordering
  LayerCluster c(4, 3, net);
  run_causal_chain(c, 10);
}

TEST(CausalLayer, ConcurrentSendersAllDelivered) {
  LayerCluster c(3, 7);
  ASSERT_TRUE(c.await_group());
  for (int r = 0; r < 15; ++r) {
    c.nodes[0].layer->multicast(to_bytes("a" + std::to_string(r)));
    c.nodes[1].layer->multicast(to_bytes("b" + std::to_string(r)));
    c.nodes[2].layer->multicast(to_bytes("c" + std::to_string(r)));
    c.world.run_for(3 * kMillisecond);
  }
  c.world.run_for(3 * kSecond);
  for (auto& node : c.nodes)
    EXPECT_EQ(node.recorder->deliveries.size(), 45u);
}

TEST(Layers, OverheadBytesAreTracked) {
  LayerCluster c(2, 8);
  ASSERT_TRUE(c.await_group());
  c.nodes[1].layer->multicast(to_bytes("x"));
  c.world.run_for(2 * kSecond);
  EXPECT_GT(c.nodes[1].layer->stats().overhead_bytes, 0u);
}

}  // namespace
}  // namespace evs::order
