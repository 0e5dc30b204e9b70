#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/fault.hpp"
#include "support/cluster.hpp"
#include "support/oracle.hpp"

namespace evs::test {
namespace {

std::string tag(std::size_t site, int n) {
  return "m" + std::to_string(site) + "-" + std::to_string(n);
}

TEST(Vsync, SingletonViewOnStart) {
  Cluster c({.sites = 1});
  ASSERT_TRUE(c.await_stable_view({0}));
  EXPECT_EQ(c.ep(0).view().size(), 1u);
  EXPECT_EQ(c.rec(0).views().size(), 1u);
}

TEST(Vsync, TwoProcessesFormCommonView) {
  Cluster c({.sites = 2});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  EXPECT_EQ(c.ep(0).view().id, c.ep(1).view().id);
  EXPECT_EQ(c.ep(0).view().size(), 2u);
}

class VsyncGroupSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VsyncGroupSize, AllProcessesFormCommonView) {
  Cluster c({.sites = GetParam()});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  const ViewId expected = c.ep(0).view().id;
  for (std::size_t i = 0; i < GetParam(); ++i)
    EXPECT_EQ(c.ep(i).view().id, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VsyncGroupSize,
                         ::testing::Values(3, 5, 8, 13));

TEST(Vsync, CrashShrinksView) {
  Cluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  c.world().crash_site(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  EXPECT_EQ(c.ep(0).view().size(), 3u);
}

TEST(Vsync, LateJoinExpandsView) {
  Cluster c({.sites = 3, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
}

TEST(Vsync, PartitionFormsConcurrentViews) {
  Cluster c({.sites = 5});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3, 4}));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3), c.site(4)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3, 4}));
  EXPECT_NE(c.ep(0).view().id, c.ep(2).view().id);
}

TEST(Vsync, MergeAfterHealFormsSingleView) {
  Cluster c({.sites = 5});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3, 4}));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3), c.site(4)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3, 4}));
  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3, 4}));
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

// A one-way failure splits the view without the excluded member noticing:
// p0's messages to p1 and p2 are dropped for longer than the suspect
// timeout, so p1 and p2 suspect p0 and install {p1,p2}, while p0 keeps
// hearing their heartbeats and stays in the old 3-view it believes is
// current. After the block ends, p1 and p2 want p0 back but leave the
// round to the lowest desired member, p0, whose view already equals its
// reachable set. The view epoch in their heartbeats tells p0 that
// members of its view moved on, so it starts the merge.
TEST(Vsync, OneWayBlockSplitReMergesAfterUnblock) {
  Cluster c({.sites = 3, .seed = 32});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const ViewId before = c.ep(0).view().id;
  auto& net = c.world().network();
  net.block_link(c.site(0), c.site(1));
  net.block_link(c.site(0), c.site(2));
  ASSERT_TRUE(c.await_stable_view({1, 2}, 5 * kSecond));
  EXPECT_EQ(c.ep(1).view().size(), 2u);
  // p0 never suspected anyone: it still sits in the split-off view.
  EXPECT_EQ(c.ep(0).view().id, before);
  net.unblock_link(c.site(0), c.site(1));
  net.unblock_link(c.site(0), c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}, 10 * kSecond))
      << "p0 in " << to_string(c.ep(0).view().id) << ", p1 in "
      << to_string(c.ep(1).view().id);
  EXPECT_GT(c.ep(0).view().id, before);
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

// Advances the cluster to `past` after the next heartbeat tick of the
// endpoints spawned at time 0. Just past a tick is the worst phase for a
// restart if the coordinator only noticed it on its tick.
void run_past_next_tick(Cluster& c, SimDuration past = kMillisecond) {
  const SimDuration beat = c.ep(0).config().detector.heartbeat_interval;
  const SimTime now = c.world().scheduler().now();
  c.world().run_for(beat - now % beat + past);
}

// A member restarted after its suspicion heartbeats every site at start.
// That heartbeat completes the coordinator's picture (every site heard),
// so the coordinator proposes at once rather than at its next tick, and
// the full view installs within a few network delays.
TEST(Vsync, RestartedMemberRejoinsWellInsideOneHeartbeatInterval) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().crash_site(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  run_past_next_tick(c);
  const SimTime restart = c.world().scheduler().now();
  c.world().respawn(c.site(2));
  ASSERT_TRUE(c.await([&] { return c.stable_view_among({0, 1, 2}); },
                      kSecond, 100 * kMicrosecond));
  const SimDuration beat = c.ep(0).config().detector.heartbeat_interval;
  EXPECT_LT(c.world().scheduler().now() - restart, beat / 2);
  EXPECT_EQ(c.rec(2).views().size(), 2u);  // its singleton, then the full view
}

// A 2|2 partition heals. p3 restarted 7 ms off the others' heartbeat
// phase, so the coordinator p0 hears p3 and p2 at different times and a
// tick can fall between them. p0 acts on its own once it hears every site;
// a round it proposed from the tick without p2 is ignored by p3 (it drops
// p2, whom p3 hears, and p0 counts as just heard), and p0 abandons that
// round as soon as it hears p2. So every process installs exactly one view
// for the heal, within a suspect timeout.
TEST(Vsync, TwoTwoHealInstallsOneViewPerProcess) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    for (const SimDuration offset :
         {SimDuration{0}, 8 * kMillisecond, 16 * kMillisecond}) {
      Cluster c({.sites = 4, .seed = seed});
      ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
      c.world().run_for(7 * kMillisecond);
      c.world().crash_site(c.site(3));
      c.world().respawn(c.site(3));
      ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
      c.world().network().set_partition(
          {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
      ASSERT_TRUE(c.await_stable_view({0, 1}));
      ASSERT_TRUE(c.await_stable_view({2, 3}));
      c.world().run_for(kSecond);
      std::vector<std::size_t> before;
      for (std::size_t i = 0; i < 4; ++i)
        before.push_back(c.rec(i).views().size());
      run_past_next_tick(c);
      c.world().run_for(offset);
      c.world().network().heal();
      const SimTime healed = c.world().scheduler().now();
      ASSERT_TRUE(c.await([&] { return c.stable_view_among({0, 1, 2, 3}); },
                          10 * kSecond, 100 * kMicrosecond));
      EXPECT_LT(c.world().scheduler().now() - healed,
                c.ep(0).config().detector.suspect_timeout)
          << "seed " << seed << ", heal offset " << offset;
      c.world().run_for(kSecond);
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(c.rec(i).views().size(), before[i] + 1)
            << "seed " << seed << ", heal offset " << offset << ", p" << i;
      }
      EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
    }
  }
}

// One-at-a-time admission takes one round per newcomer. The next round
// starts at the install of the previous one, for a newcomer heard during
// it, so two newcomers are both in well inside one heartbeat interval
// rather than one tick apart.
TEST(Vsync, NewcomerHeardDuringARoundIsAdmittedAtTheInstall) {
  ClusterOptions opt{.sites = 4, .spawn_all = false};
  opt.endpoint.policy = gms::JoinPolicy::OneAtATime;
  Cluster c(opt);
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  run_past_next_tick(c);
  const SimTime start = c.world().scheduler().now();
  c.spawn_at(c.site(2));
  c.spawn_at(c.site(3));
  ASSERT_TRUE(c.await([&] { return c.stable_view_among({0, 1, 2, 3}); },
                      kSecond, 100 * kMicrosecond));
  const SimDuration beat = c.ep(0).config().detector.heartbeat_interval;
  EXPECT_LT(c.world().scheduler().now() - start, beat / 2);
  EXPECT_EQ(c.rec(0).views().size(), 4u);  // singleton, {0,1}, +1, +1
}

// p2 restarts 5 ms past the survivors' tick, when their last heartbeats
// have come and gone, and p1's frames to it are dropped. p0 admits p2 as
// soon as it hears it, so p2 installs the full view having heard no
// heartbeat at all (only p0's Propose and Install), and then hears only
// p0. Each member acked that round, so p2 presumes them alive for a
// suspect timeout instead of voting them, and so itself, out again.
TEST(Vsync, RejoinerHearingOnlyTheCoordinatorStaysInTheFullView) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().crash_site(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  auto& net = c.world().network();
  net.block_link(c.site(1), c.site(2));
  run_past_next_tick(c, 5 * kMillisecond);
  const SimTime restart = c.world().scheduler().now();
  c.world().respawn(c.site(2));
  ASSERT_TRUE(c.await([&] { return c.stable_view_among({0, 1, 2}); },
                      kSecond, 100 * kMicrosecond));
  const SimDuration beat = c.ep(0).config().detector.heartbeat_interval;
  EXPECT_LT(c.world().scheduler().now() - restart, beat / 2);
  const ViewId full = c.ep(2).view().id;
  c.world().run_for(c.ep(2).config().detector.suspect_timeout / 2);
  net.unblock_link(c.site(1), c.site(2));
  c.world().run_for(kSecond);
  EXPECT_EQ(c.ep(2).view().id, full);
  EXPECT_EQ(c.rec(2).views().size(), 2u);
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

// A proposal that drops a member we still hear is ignored while its
// proposer counts as just heard. A proposer we do not hear at all has not
// been heard since it came back: its reachable_since is from before the
// partition, stale, and must not make the exclusion stand.
TEST(Vsync, UnheardProposerCannotDropAMemberWeHear) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().network().set_partition({{c.site(0), c.site(2)}, {c.site(1)}});
  ASSERT_TRUE(c.await_stable_view({0, 2}));
  const ProcessId p1 = c.world().live_process(c.site(1));
  const ProcessId p2 = c.world().live_process(c.site(2));
  gms::Propose propose;
  propose.round = gms::RoundId{c.ep(2).view().id.epoch + 10, p1};
  propose.members = {p1, p2};
  Encoder body;
  body.put_u8(static_cast<std::uint8_t>(gms::MembershipKind::Propose));
  propose.encode(body);
  c.ep(2).on_message(p1, gms::frame(gms::Channel::Membership, std::move(body)));
  EXPECT_FALSE(c.ep(2).blocked()) << "p2 acked a view without p0";
  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

TEST(Vsync, IsolatedMinoritySideFormsSingleton) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().network().set_partition({{c.site(0)}, {c.site(1), c.site(2)}});
  ASSERT_TRUE(c.await_stable_view({0}));
  EXPECT_EQ(c.ep(0).view().size(), 1u);
}

TEST(Vsync, MulticastDeliveredToAllMembers) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.rec(0).multicast("hello");
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.rec(i).deliveries().empty()) return false;
    }
    return true;
  }));
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(c.rec(i).deliveries().size(), 1u);
    EXPECT_EQ(c.rec(i).deliveries()[0].payload, "hello");
    EXPECT_EQ(c.rec(i).deliveries()[0].sender, c.ep(0).id());
  }
}

TEST(Vsync, SelfDeliveryIsImmediatelyOrdered) {
  Cluster c({.sites = 2});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  for (int n = 0; n < 5; ++n) c.rec(0).multicast(tag(0, n));
  ASSERT_TRUE(c.await([&]() { return c.rec(1).deliveries().size() == 5; }));
  for (int n = 0; n < 5; ++n) {
    EXPECT_EQ(c.rec(0).deliveries()[n].payload, tag(0, n));
    EXPECT_EQ(c.rec(1).deliveries()[n].payload, tag(0, n));
  }
}

TEST(Vsync, FifoPerSenderUnderLoad) {
  Cluster c({.sites = 3, .seed = 9});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const int kMessages = 50;
  for (int n = 0; n < kMessages; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.rec(1).multicast(tag(1, n));
  }
  ASSERT_TRUE(c.await(
      [&]() { return c.rec(2).deliveries().size() == 2 * kMessages; }));
  // Per-sender order must be the sending order.
  int next0 = 0;
  int next1 = 0;
  for (const auto& d : c.rec(2).deliveries()) {
    if (d.sender == c.ep(0).id()) {
      EXPECT_EQ(d.payload, tag(0, next0++));
    } else {
      EXPECT_EQ(d.payload, tag(1, next1++));
    }
  }
  EXPECT_EQ(next0, kMessages);
  EXPECT_EQ(next1, kMessages);
}

TEST(Vsync, AgreementWhenSenderCrashesMidStream) {
  Cluster c({.sites = 4, .seed = 11});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  // Fire messages and crash the sender while some are in flight.
  for (int n = 0; n < 20; ++n) c.rec(3).multicast(tag(3, n));
  c.world().crash_site(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().run_for(2 * kSecond);
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
  // Survivors must agree exactly (stronger than the pairwise oracle:
  // all three took the same view transition).
  std::set<std::string> s0, s1, s2;
  for (const auto& d : c.rec(0).deliveries()) s0.insert(d.payload);
  for (const auto& d : c.rec(1).deliveries()) s1.insert(d.payload);
  for (const auto& d : c.rec(2).deliveries()) s2.insert(d.payload);
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(s1, s2);
}

TEST(Vsync, SurvivingSenderMessagesAreNeverLost) {
  Cluster c({.sites = 3, .seed = 13});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  // Sender 0 multicasts, then site 2 crashes, forcing a view change while
  // messages may be in flight. Sender 0 survives, so every survivor must
  // deliver all of its messages (they ride in sender 0's own flush ACK).
  for (int n = 0; n < 30; ++n) c.rec(0).multicast(tag(0, n));
  c.world().crash_site(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.world().run_for(2 * kSecond);
  for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    std::set<std::string> got;
    for (const auto& d : c.rec(i).deliveries()) got.insert(d.payload);
    for (int n = 0; n < 30; ++n) {
      EXPECT_TRUE(got.contains(tag(0, n)))
          << "site " << i << " missing " << tag(0, n);
    }
  }
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

TEST(Vsync, MulticastWhileBlockedIsSentInNextView) {
  Cluster c({.sites = 3, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  // Freeze happens during the join of site 2; multicast storms during the
  // change must all come out the other side.
  c.spawn_at(c.site(2));
  for (int n = 0; n < 40; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.world().run_for(5 * kMillisecond);
  }
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().run_for(2 * kSecond);
  // Site 1 survives alongside site 0 the whole time: it must see all 40.
  std::set<std::string> got;
  for (const auto& d : c.rec(1).deliveries()) got.insert(d.payload);
  EXPECT_EQ(got.size(), 40u);
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

TEST(Vsync, UniquenessAcrossPartitionAndMerge) {
  Cluster c({.sites = 4, .seed = 17});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  for (int n = 0; n < 10; ++n) c.rec(0).multicast(tag(0, n));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3}));
  for (int n = 10; n < 20; ++n) c.rec(0).multicast(tag(0, n));
  for (int n = 0; n < 10; ++n) c.rec(2).multicast(tag(2, n));
  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  c.world().run_for(2 * kSecond);
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

TEST(Vsync, LeaveShrinksViewQuickly) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.ep(2).leave();
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  EXPECT_FALSE(c.world().site_alive(c.site(2)));
}

TEST(Vsync, TotalFailureThenRecoveryFormsFreshView) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const ViewId old_view = c.ep(0).view().id;
  for (const auto site : c.sites()) c.world().crash_site(site);
  c.world().run_for(500 * kMillisecond);
  for (const auto site : c.sites()) c.world().respawn(site);
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  EXPECT_NE(c.ep(0).view().id, old_view);
  // Fresh incarnations: every member has a higher incarnation number.
  for (const ProcessId member : c.ep(0).view().members)
    EXPECT_GE(member.incarnation, 2u);
}

TEST(Vsync, ViewEpochsMonotonicallyIncreasePerProcess) {
  Cluster c({.sites = 4, .seed = 23});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
  c.world().run_for(2 * kSecond);
  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  for (const auto& rec : c.all_recorders()) {
    const auto& views = rec->views();
    for (std::size_t i = 0; i + 1 < views.size(); ++i) {
      EXPECT_LT(views[i].view.id.epoch, views[i + 1].view.id.epoch);
    }
  }
}

TEST(Vsync, StabilityGcBoundsBuffer) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  for (int n = 0; n < 300; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.world().run_for(2 * kMillisecond);
  }
  c.world().run_for(1 * kSecond);  // a few stability rounds
  EXPECT_GT(c.ep(0).stats().stability_gc_messages, 0u);
  // After quiescence + gossip, the buffers must drain completely.
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.ep(i).buffer_size() != 0) return false;
    }
    return true;
  }));
}

TEST(Vsync, GcDisabledKeepsAllMessagesBuffered) {
  ClusterOptions opt{.sites = 2};
  opt.endpoint.stability_interval = 0;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  for (int n = 0; n < 50; ++n) c.rec(0).multicast(tag(0, n));
  c.world().run_for(2 * kSecond);
  EXPECT_GE(c.ep(0).stats().buffer_peak, 50u);
  EXPECT_EQ(c.ep(0).stats().stability_gc_messages, 0u);
}

TEST(Vsync, ContextsTravelWithInstall) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  // The final (merged) view must carry one context per member.
  const auto& views = c.rec(0).views();
  ASSERT_FALSE(views.empty());
  const auto& last = views.back();
  EXPECT_EQ(last.contexts.size(), last.view.members.size());
}

TEST(Vsync, MessageLossDoesNotViolateProperties) {
  ClusterOptions opt{.sites = 3, .seed = 31};
  opt.net.loss_rate = 0.05;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}, 120 * kSecond));
  for (int n = 0; n < 30; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.rec(1).multicast(tag(1, n));
    c.world().run_for(10 * kMillisecond);
  }
  c.world().run_for(5 * kSecond);
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

// Property suite: random fault schedules, many seeds. The oracles check
// Agreement / Uniqueness / Integrity over the complete histories.
class VsyncRandomFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VsyncRandomFaults, PropertiesHoldUnderRandomSchedule) {
  const std::uint64_t seed = GetParam();
  Cluster c({.sites = 5, .seed = seed});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));

  sim::Rng rng(seed * 1000003);
  sim::FaultProfile profile;
  profile.mean_interval = 800 * kMillisecond;
  const SimTime horizon = c.world().scheduler().now() + 8 * kSecond;
  auto plan = sim::random_fault_plan(rng, c.sites(), horizon, profile);
  plan.arm(c.world());

  // Application traffic from whoever is alive, all through the run.
  int n = 0;
  while (c.world().scheduler().now() < horizon) {
    for (std::size_t i = 0; i < 5; ++i) {
      if (c.world().site_alive(c.site(i))) c.rec(i).multicast(tag(i, n));
    }
    ++n;
    c.world().run_for(100 * kMillisecond);
  }
  c.world().network().heal();
  c.world().run_for(5 * kSecond);
  EXPECT_TRUE(check_vs_properties(recorder_ptrs(c.all_recorders())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VsyncRandomFaults,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace evs::test
