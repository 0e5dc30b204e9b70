#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "detector/heartbeat.hpp"
#include "gms/wire.hpp"
#include "sim/world.hpp"

namespace evs::detector {
namespace {

// Minimal actor hosting a detector, speaking the heartbeat channel.
class DetectorActor : public sim::Actor {
 public:
  DetectorActor(std::vector<SiteId> universe, DetectorConfig config)
      : universe_(std::move(universe)), config_(config) {}

  void on_start() override {
    DetectorHost host;
    host.send_heartbeat = [this](SiteId site) {
      Encoder empty;
      world().network().send_to_site(id(), site,
                                     gms::frame(gms::Channel::Heartbeat, empty));
    };
    host.set_timer = [this](SimDuration d, std::function<void()> fn) {
      set_timer(d, std::move(fn));
    };
    host.now = [this]() { return scheduler().now(); };
    detector_ = std::make_unique<HeartbeatDetector>(
        id(), universe_, std::move(host), config_,
        [this](const std::vector<ProcessId>& reachable) {
          ++changes_;
          last_ = reachable;
        });
    detector_->start();
  }

  void on_message(ProcessId from, const Bytes& payload) override {
    Decoder dec(payload);
    if (gms::peek_channel(dec) == gms::Channel::Heartbeat)
      detector_->on_heartbeat(from);
  }

  HeartbeatDetector& detector() { return *detector_; }
  int changes() const { return changes_; }
  const std::vector<ProcessId>& last() const { return last_; }

 private:
  std::vector<SiteId> universe_;
  DetectorConfig config_;
  std::unique_ptr<HeartbeatDetector> detector_;
  int changes_ = 0;
  std::vector<ProcessId> last_;
};

struct DetectorFixture {
  explicit DetectorFixture(std::size_t n, std::uint64_t seed = 1,
                           sim::NetworkConfig net = {}, DetectorConfig cfg = {})
      : world(seed, net) {
    sites = world.add_sites(n);
    for (const SiteId site : sites)
      actors.push_back(&world.spawn<DetectorActor>(site, sites_vec(), cfg));
  }
  std::vector<SiteId> sites_vec() const { return sites; }

  sim::World world;
  std::vector<SiteId> sites;
  std::vector<DetectorActor*> actors;
};

TEST(Detector, DiscoversAllPeers) {
  DetectorFixture f(4);
  f.world.run_for(500 * kMillisecond);
  for (auto* actor : f.actors) {
    EXPECT_EQ(actor->detector().reachable().size(), 4u);
  }
}

TEST(Detector, SuspectsCrashedProcess) {
  DetectorFixture f(3);
  f.world.run_for(500 * kMillisecond);
  const ProcessId victim = f.actors[2]->id();
  f.world.crash_site(f.sites[2]);
  f.world.run_for(500 * kMillisecond);
  EXPECT_FALSE(f.actors[0]->detector().is_reachable(victim));
  EXPECT_FALSE(f.actors[1]->detector().is_reachable(victim));
  EXPECT_EQ(f.actors[0]->detector().reachable().size(), 2u);
}

TEST(Detector, PartitionSuspectsOtherSide) {
  DetectorFixture f(4);
  f.world.run_for(500 * kMillisecond);
  f.world.network().set_partition({{f.sites[0], f.sites[1]},
                                   {f.sites[2], f.sites[3]}});
  f.world.run_for(500 * kMillisecond);
  EXPECT_EQ(f.actors[0]->detector().reachable().size(), 2u);
  EXPECT_EQ(f.actors[3]->detector().reachable().size(), 2u);
  EXPECT_TRUE(f.actors[0]->detector().is_reachable(f.actors[1]->id()));
  EXPECT_FALSE(f.actors[0]->detector().is_reachable(f.actors[2]->id()));
}

TEST(Detector, RecoversReachabilityAfterHeal) {
  DetectorFixture f(4);
  f.world.run_for(500 * kMillisecond);
  f.world.network().set_partition({{f.sites[0]}, {f.sites[1], f.sites[2], f.sites[3]}});
  f.world.run_for(500 * kMillisecond);
  EXPECT_EQ(f.actors[0]->detector().reachable().size(), 1u);
  f.world.network().heal();
  f.world.run_for(500 * kMillisecond);
  EXPECT_EQ(f.actors[0]->detector().reachable().size(), 4u);
}

TEST(Detector, NewIncarnationSupersedesOld) {
  DetectorFixture f(2);
  f.world.run_for(500 * kMillisecond);
  const ProcessId old_id = f.actors[1]->id();
  f.world.crash_site(f.sites[1]);
  // Respawn a fresh incarnation at the same site.
  auto* fresh =
      &f.world.spawn<DetectorActor>(f.sites[1], f.sites, DetectorConfig{});
  f.world.run_for(500 * kMillisecond);
  EXPECT_FALSE(f.actors[0]->detector().is_reachable(old_id));
  EXPECT_TRUE(f.actors[0]->detector().is_reachable(fresh->id()));
}

TEST(Detector, MarkLeftIsImmediateAndPermanent) {
  DetectorFixture f(3);
  f.world.run_for(500 * kMillisecond);
  const ProcessId peer = f.actors[1]->id();
  f.actors[0]->detector().mark_left(peer);
  EXPECT_FALSE(f.actors[0]->detector().is_reachable(peer));
  // Heartbeats keep arriving but must be ignored.
  f.world.run_for(500 * kMillisecond);
  EXPECT_FALSE(f.actors[0]->detector().is_reachable(peer));
}

TEST(Detector, FalseSuspicionUnderSevereDelay) {
  // Jitter far above the suspect timeout guarantees false suspicions even
  // though nobody crashed — the asynchrony the paper insists on.
  sim::NetworkConfig net;
  net.min_delay = 1 * kMillisecond;
  net.mean_jitter_us = 300'000.0;  // 300ms mean vs 120ms timeout
  DetectorFixture f(3, /*seed=*/5, net);
  f.world.run_for(5 * kSecond);
  std::uint64_t suspicions = 0;
  for (auto* actor : f.actors) suspicions += actor->detector().stats().suspicions;
  EXPECT_GT(suspicions, 0u);
}

TEST(Detector, ReachableAlwaysContainsSelf) {
  DetectorFixture f(1);
  f.world.run_for(200 * kMillisecond);
  const auto reachable = f.actors[0]->detector().reachable();
  ASSERT_EQ(reachable.size(), 1u);
  EXPECT_EQ(reachable[0], f.actors[0]->id());
}

TEST(Detector, ChangeCallbackFiresOnMembershipEvents) {
  DetectorFixture f(2);
  f.world.run_for(500 * kMillisecond);
  const int changes_before = f.actors[0]->changes();
  EXPECT_GE(changes_before, 1);  // discovery of peer
  f.world.crash_site(f.sites[1]);
  f.world.run_for(500 * kMillisecond);
  EXPECT_GT(f.actors[0]->changes(), changes_before);
}

// The host may evaluate between ticks: a peer heard since the last tick is
// reported at once, and a second call with nothing new reports nothing.
TEST(Detector, EvaluateReportsAHeardPeerBeforeTheNextTick) {
  DetectorConfig cfg;
  cfg.heartbeat_interval = 1 * kSecond;
  cfg.suspect_timeout = 5 * kSecond;
  DetectorFixture f(2, /*seed=*/1, {}, cfg);
  f.world.run_for(10 * kMillisecond);
  auto* actor = f.actors[0];
  ASSERT_TRUE(actor->detector().is_reachable(f.actors[1]->id()));
  EXPECT_EQ(actor->changes(), 0);  // the next tick is a second away
  actor->detector().evaluate();
  EXPECT_EQ(actor->changes(), 1);
  EXPECT_EQ(actor->last().size(), 2u);
  actor->detector().evaluate();
  EXPECT_EQ(actor->changes(), 1);
}

TEST(Detector, HearsEverySiteOnlyOnceEachSiteIsReachable) {
  DetectorFixture f(3);
  f.world.network().set_partition({{f.sites[0], f.sites[1]}, {f.sites[2]}});
  f.world.run_for(100 * kMillisecond);
  EXPECT_FALSE(f.actors[0]->detector().hears_every_site());
  f.world.network().heal();
  f.world.run_for(100 * kMillisecond);
  EXPECT_TRUE(f.actors[0]->detector().hears_every_site());
}

TEST(Detector, PresumeAliveLastsOneSuspectTimeout) {
  DetectorFixture f(3);
  // No heartbeat ever crosses between the sites.
  f.world.network().set_partition(
      {{f.sites[0]}, {f.sites[1]}, {f.sites[2]}});
  f.world.run_for(50 * kMillisecond);
  HeartbeatDetector& det = f.actors[0]->detector();
  const ProcessId peer = f.actors[1]->id();
  ASSERT_FALSE(det.is_reachable(peer));
  const SimTime presumed_at = f.world.scheduler().now();
  det.presume_alive(peer);
  EXPECT_TRUE(det.is_reachable(peer));
  EXPECT_EQ(det.reachable_since(peer), presumed_at);
  EXPECT_EQ(det.reachable().size(), 2u);
  // Presumed, not heard: no heartbeat was counted.
  EXPECT_EQ(det.stats().heartbeats_received, 0u);
  f.world.run_for(det.config().suspect_timeout + det.config().heartbeat_interval);
  EXPECT_FALSE(det.is_reachable(peer));
  EXPECT_EQ(det.reachable().size(), 1u);
}

TEST(Detector, PresumeAliveNeverRevivesALeftOrSupersededProcess) {
  DetectorFixture f(3);
  f.world.run_for(500 * kMillisecond);
  HeartbeatDetector& det = f.actors[0]->detector();
  const ProcessId left = f.actors[1]->id();
  det.mark_left(left);
  det.presume_alive(left);
  EXPECT_FALSE(det.is_reachable(left));
  // A view can still name an incarnation whose successor is heard.
  const ProcessId current = f.actors[2]->id();
  ASSERT_GT(current.incarnation, 0u);
  const ProcessId older{current.site, current.incarnation - 1};
  det.presume_alive(older);
  EXPECT_FALSE(det.is_reachable(older));
  EXPECT_EQ(det.reachable().size(), 2u);
  det.presume_alive(det.reachable().front());  // self: a no-op
  EXPECT_EQ(det.reachable().size(), 2u);
}

}  // namespace
}  // namespace evs::detector
