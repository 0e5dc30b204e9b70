#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "support/evs_cluster.hpp"

namespace evs::test {
namespace {

using core::EView;
using core::EViewStructure;

std::vector<SvSetId> all_svsets(const EViewStructure& s) {
  std::vector<SvSetId> ids;
  for (const auto& ss : s.svsets()) ids.push_back(ss.id);
  return ids;
}

std::vector<SubviewId> all_subviews(const EViewStructure& s) {
  std::vector<SubviewId> ids;
  for (const auto& sv : s.subviews()) ids.push_back(sv.id);
  return ids;
}

std::vector<std::string> delivered_payloads(const EvsRecorder& rec) {
  std::vector<std::string> out;
  for (const auto& d : rec.deliveries()) out.push_back(d.payload);
  return out;
}

// Stands in for a site's recorder as its endpoint's delegate: records as
// the recorder does, then calls `react` for every delivered payload that
// starts with 's'. Restores the recorder as delegate when destroyed.
class ReactingDelegate : public core::EvsDelegate {
 public:
  ReactingDelegate(EvsRecorder& rec,
                   std::function<void(const std::string&)> react)
      : rec_(rec), react_(std::move(react)) {
    rec_.endpoint().set_evs_delegate(this);
  }
  ~ReactingDelegate() override { rec_.endpoint().set_evs_delegate(&rec_); }
  ReactingDelegate(const ReactingDelegate&) = delete;
  ReactingDelegate& operator=(const ReactingDelegate&) = delete;

  void on_eview(const EView& eview) override { rec_.on_eview(eview); }
  void on_app_deliver(ProcessId sender, const Bytes& payload) override {
    rec_.on_app_deliver(sender, payload);
    const std::string text = to_string(payload);
    if (text.rfind('s', 0) == 0) react_(text);
  }

 private:
  EvsRecorder& rec_;
  std::function<void(const std::string&)> react_;
};

// The drain scenario: site 2 forwards s0..s9 and the sequencer (site 0)
// crashes before stamping any, so sites 1 and 2 deliver them from
// on_view's drain of unstamped messages — where site 1's delegate reacts.
void crash_sequencer_with_unstamped_sends(EvsCluster& c) {
  for (int i = 0; i < 10; ++i) c.rec(2).multicast("s" + std::to_string(i));
  c.world().crash_site(c.site(0));
  ASSERT_TRUE(c.await_stable_view({1, 2}));
  c.world().run_for(2 * kSecond);
}

TEST(Evs, FreshGroupIsAllSingletons) {
  EvsCluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // New members appear as singleton subviews in singleton sv-sets
  // (Section 6.1) — so a fresh 4-view has 4 of each.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.ep(i).eview().structure.subviews().size(), 4u);
    EXPECT_EQ(c.ep(i).eview().structure.svsets().size(), 4u);
  }
  EXPECT_TRUE(c.structures_agree(c.all_indices()));
}

TEST(Evs, SvSetMergeConvergesEverywhere) {
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.ep(1).request_sv_set_merge(all_svsets(c.ep(1).eview().structure));
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.ep(i).eview().structure.svsets().size() != 1) return false;
    }
    return true;
  }));
  EXPECT_TRUE(c.structures_agree(c.all_indices()));
  // Subviews untouched by an sv-set merge.
  EXPECT_EQ(c.ep(0).eview().structure.subviews().size(), 3u);
}

TEST(Evs, SubviewMergeRequiresSharedSvSet) {
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Without an sv-set merge first, subviews live in different sv-sets:
  // the merge must have no effect (Section 6.1).
  c.ep(0).request_subview_merge(all_subviews(c.ep(0).eview().structure));
  c.world().run_for(2 * kSecond);
  EXPECT_EQ(c.ep(0).eview().structure.subviews().size(), 3u);
  EXPECT_GE(c.ep(0).evs_stats().merges_rejected, 1u);
}

TEST(Evs, FullMergeSequenceReachesDegenerateView) {
  // The Figure-3 sequence: merge sv-sets, then merge subviews inside the
  // resulting sv-set, ending in the traditional-view special case.
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.ep(0).request_merge_all();  // sv-set merge
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
  c.ep(0).request_merge_all();  // subview merge
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().degenerate(); }));
  ASSERT_TRUE(c.await([&]() { return c.structures_agree(c.all_indices()); }));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_TRUE(c.ep(i).eview().degenerate());
}

TEST(Evs, EvChangesAreTotallyOrdered) {
  // P6.1: all members observe the same sequence of e-view changes.
  EvsCluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Two concurrent merge requests from different members.
  const auto& s = c.ep(0).eview().structure;
  std::vector<SvSetId> first{s.svsets()[0].id, s.svsets()[1].id};
  std::vector<SvSetId> second{s.svsets()[2].id, s.svsets()[3].id};
  c.ep(1).request_sv_set_merge(first);
  c.ep(3).request_sv_set_merge(second);
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 4; ++i) {
      if (c.ep(i).eview().ev_seq != 2) return false;
    }
    return true;
  }));
  // The per-member histories of (ev_seq -> structure) must be identical.
  std::map<std::uint64_t, std::string> reference;
  for (const auto& ev : c.rec(0).eviews()) {
    if (ev.ev_seq > 0) reference[ev.ev_seq] = ev.structure;
  }
  ASSERT_EQ(reference.size(), 2u);
  for (std::size_t i = 1; i < 4; ++i) {
    std::map<std::uint64_t, std::string> got;
    for (const auto& ev : c.rec(i).eviews()) {
      if (ev.ev_seq > 0) got[ev.ev_seq] = ev.structure;
    }
    EXPECT_EQ(got, reference) << "member " << i;
  }
}

TEST(Evs, ConsistentCutsP62) {
  // P6.2: e-view changes define consistent cuts. A message multicast
  // *after* its sender applied e-view change #k must never be delivered
  // *before* #k at any member. We drive this adversarially: the moment a
  // member sees an e-view change it fires a message, under heavy jitter.
  sim::NetworkConfig net;
  net.mean_jitter_us = 15'000.0;
  EvsCluster c({.sites = 4, .seed = 19, .net = net});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));

  for (int round = 0; round < 3; ++round) {
    const auto& s = c.ep(0).eview().structure;
    if (s.svsets().size() < 2) break;
    std::vector<SvSetId> pair{s.svsets()[0].id, s.svsets()[1].id};
    c.ep(2).request_sv_set_merge(pair);
    const std::uint64_t target = c.ep(0).eview().ev_seq + 1;
    ASSERT_TRUE(c.await([&]() {
      bool fired = false;
      for (std::size_t i = 0; i < 4; ++i) {
        if (c.ep(i).eview().ev_seq >= target) {
          // React instantly to the e-view change.
          c.rec(i).multicast("after-ev" + std::to_string(target) + "-from" +
                             std::to_string(i));
          fired = true;
        }
      }
      return fired;
    }));
    c.world().run_for(2 * kSecond);
  }

  // Check the cut: in every member's event log, a payload tagged
  // "after-evK" must appear after the EViewEvent with ev_seq == K.
  for (const auto& rec : c.all_recorders()) {
    std::uint64_t current_ev = 0;
    for (const auto& event : rec->events()) {
      if (const auto* v = std::get_if<EvsRecorder::EViewEvent>(&event)) {
        current_ev = v->ev_seq;
        continue;
      }
      const auto& d = std::get<EvsRecorder::DeliverEvent>(event);
      if (d.payload.rfind("after-ev", 0) != 0) continue;
      const std::uint64_t k = std::stoull(d.payload.substr(8));
      EXPECT_GE(current_ev, k)
          << to_string(rec->endpoint_id()) << " delivered '" << d.payload
          << "' before applying e-view change " << k;
    }
  }
}

TEST(Evs, StructurePreservedAcrossCrashP63) {
  EvsCluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Collapse to a single subview, then crash one member: survivors stay
  // in one subview (ids preserved) per Property 6.3.
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().degenerate(); }));

  c.world().crash_site(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  for (std::size_t i = 0; i < 3; ++i) {
    // The *grouping* is what P6.3 preserves (ids are view-scoped, since
    // subviews do not span view boundaries): the three survivors remain
    // together in a single subview.
    const auto& s = c.ep(i).eview().structure;
    ASSERT_EQ(s.subviews().size(), 1u);
    EXPECT_EQ(s.subviews()[0].members.size(), 3u);
    EXPECT_TRUE(c.ep(i).eview().degenerate());
  }
}

TEST(Evs, JoinerAppearsAsSingletonNextToMergedSubview) {
  EvsCluster c({.sites = 3, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().degenerate(); }));

  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const auto& s = c.ep(0).eview().structure;
  // Old pair still together; newcomer alone; two sv-sets.
  ASSERT_EQ(s.subviews().size(), 2u);
  ASSERT_EQ(s.svsets().size(), 2u);
  EXPECT_EQ(s.subview_of(c.world().live_process(c.site(0))),
            s.subview_of(c.world().live_process(c.site(1))));
  const auto joiner_sv =
      s.subview_of(c.world().live_process(c.site(2)));
  ASSERT_TRUE(joiner_sv.has_value());
  EXPECT_EQ(s.find_subview(*joiner_sv)->members.size(), 1u);
}

TEST(Evs, PartitionMergeKeepsClustersApart) {
  // The Figure-2 scenario: two partitions evolve independently (each
  // collapses to one subview), then merge. The new view must contain the
  // two cluster subviews, in *separate sv-sets*, so members can classify
  // the shared-state problem locally (Section 6.2).
  EvsCluster c({.sites = 5, .seed = 21});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3), c.site(4)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3, 4}));

  // Each side merges its own structure down to one subview.
  auto settle_side = [&](std::size_t leader,
                         const std::vector<std::size_t>& side) {
    c.ep(leader).request_merge_all();
    ASSERT_TRUE(c.await([&]() {
      return c.ep(leader).eview().structure.svsets().size() == 1;
    }));
    c.ep(leader).request_merge_all();
    ASSERT_TRUE(c.await([&]() { return c.ep(leader).eview().degenerate(); }));
    ASSERT_TRUE(c.await([&]() { return c.structures_agree(side); }));
  };
  settle_side(0, {0, 1});
  settle_side(2, {2, 3, 4});

  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  const auto& s = c.ep(0).eview().structure;
  ASSERT_EQ(s.subviews().size(), 2u);
  ASSERT_EQ(s.svsets().size(), 2u);
  EXPECT_TRUE(c.structures_agree(c.all_indices()));
  // Cluster membership exactly matches the old partitions.
  const auto sv_a = s.subview_of(c.world().live_process(c.site(0)));
  const auto sv_b = s.subview_of(c.world().live_process(c.site(2)));
  ASSERT_TRUE(sv_a && sv_b);
  EXPECT_NE(*sv_a, *sv_b);
  EXPECT_EQ(s.find_subview(*sv_a)->members.size(), 2u);
  EXPECT_EQ(s.find_subview(*sv_b)->members.size(), 3u);
}

TEST(Evs, AppMulticastIsTotallyOrderedAcrossSenders) {
  sim::NetworkConfig net;
  net.mean_jitter_us = 10'000.0;
  EvsCluster c({.sites = 4, .seed = 23, .net = net});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  for (int r = 0; r < 15; ++r) {
    for (std::size_t i = 0; i < 4; ++i)
      c.rec(i).multicast("x" + std::to_string(i) + "-" + std::to_string(r));
    c.world().run_for(4 * kMillisecond);
  }
  c.world().run_for(5 * kSecond);
  std::vector<std::string> reference;
  for (const auto& d : c.rec(0).deliveries()) reference.push_back(d.payload);
  ASSERT_EQ(reference.size(), 60u);
  for (std::size_t i = 1; i < 4; ++i) {
    std::vector<std::string> got;
    for (const auto& d : c.rec(i).deliveries()) got.push_back(d.payload);
    EXPECT_EQ(got, reference) << "member " << i;
  }
}

TEST(Evs, AppTrafficSurvivesViewChange) {
  EvsCluster c({.sites = 3, .seed = 29});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Send while a crash-triggered view change is racing.
  for (int n = 0; n < 20; ++n) c.rec(0).multicast("pre-" + std::to_string(n));
  c.world().crash_site(c.site(2));
  for (int n = 0; n < 20; ++n) c.rec(0).multicast("mid-" + std::to_string(n));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.world().run_for(5 * kSecond);
  // Sender survives; both survivors must deliver all 40 exactly once.
  for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    std::multiset<std::string> got;
    for (const auto& d : c.rec(i).deliveries()) got.insert(d.payload);
    EXPECT_EQ(got.size(), 40u) << "member " << i;
    std::set<std::string> uniq(got.begin(), got.end());
    EXPECT_EQ(uniq.size(), got.size()) << "duplicate delivery at member " << i;
  }
}

TEST(Evs, ReplyNeverOvertakesItsCause) {
  // Site 0 sends a ping; site 1 replies the moment it delivers it. Under
  // heavy jitter every member must still deliver ping before pong.
  sim::NetworkConfig net;
  net.mean_jitter_us = 20'000.0;
  EvsCluster c({.sites = 4, .seed = 4, .net = net});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  for (int r = 0; r < 10; ++r) {
    const std::string ping = "ping-" + std::to_string(r);
    const std::string pong = "pong-" + std::to_string(r);
    auto position = [&](std::size_t i, const std::string& payload) {
      const auto got = delivered_payloads(c.rec(i));
      const auto it = std::find(got.begin(), got.end(), payload);
      return it == got.end() ? -1 : static_cast<int>(it - got.begin());
    };
    c.rec(0).multicast(ping);
    ASSERT_TRUE(c.await([&]() { return position(1, ping) >= 0; },
                        10 * kSecond, 1 * kMillisecond));
    c.rec(1).multicast(pong);
    ASSERT_TRUE(c.await([&]() {
      for (std::size_t i = 0; i < 4; ++i)
        if (position(i, pong) < 0) return false;
      return true;
    }));
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_LT(position(i, ping), position(i, pong)) << "member " << i;
  }
}

TEST(Evs, SequencerCrashDoesNotLoseSurvivorMessages) {
  // The sequencer is the primary = lowest id = site 0. Survivors keep
  // sending while it dies.
  EvsCluster c({.sites = 3, .seed = 6});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  for (int r = 0; r < 10; ++r) c.rec(1).multicast("s" + std::to_string(r));
  c.world().crash_site(c.site(0));
  ASSERT_TRUE(c.await_stable_view({1, 2}));
  c.world().run_for(5 * kSecond);
  // Both survivors deliver all 10, in the same order.
  EXPECT_EQ(delivered_payloads(c.rec(1)).size(), 10u);
  EXPECT_EQ(delivered_payloads(c.rec(1)), delivered_payloads(c.rec(2)));
}

TEST(Evs, AppSendDuringDrainKeepsTotalOrder) {
  // Site 1 replies r<i> to every s<i> it delivers — here from inside the
  // view change's drain, before the new e-view exists. Those replies must
  // be ordered in the new view like any other send.
  EvsCluster c({.sites = 3, .seed = 6});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  ReactingDelegate echo(c.rec(1), [&](const std::string& s) {
    c.rec(1).multicast("r" + s.substr(1));
  });
  crash_sequencer_with_unstamped_sends(c);
  EXPECT_EQ(delivered_payloads(c.rec(1)).size(), 20u);
  EXPECT_EQ(delivered_payloads(c.rec(1)), delivered_payloads(c.rec(2)));
}

TEST(Evs, SequencerSendDuringDrainIsDeliveredEverywhere) {
  // Site 1 becomes the sequencer of the new view while its drain replies
  // are being sent; its later sends must not be mistaken for duplicates of
  // those replies anywhere.
  EvsCluster c({.sites = 3, .seed = 6});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  for (int i = 0; i < 10; ++i) c.rec(1).multicast("a" + std::to_string(i));
  c.world().run_for(1 * kSecond);
  ReactingDelegate echo(c.rec(1), [&](const std::string& s) {
    c.rec(1).multicast("r" + s.substr(1));
  });
  crash_sequencer_with_unstamped_sends(c);
  for (int i = 0; i < 20; ++i) c.rec(1).multicast("t" + std::to_string(i));
  c.world().run_for(2 * kSecond);
  EXPECT_EQ(delivered_payloads(c.rec(1)).size(), 50u);
  EXPECT_EQ(delivered_payloads(c.rec(2)).size(), 50u);
  EXPECT_EQ(delivered_payloads(c.rec(1)), delivered_payloads(c.rec(2)));
}

TEST(Evs, MergeRequestedDuringDrainKeepsStructuresAgreeing) {
  // Site 1 asks to merge everything on every s<i> it delivers — from
  // inside the drain, against the dying view's structure. The survivors'
  // structures must agree afterwards and still merge to degenerate.
  EvsCluster c({.sites = 3, .seed = 6});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  ReactingDelegate merger(
      c.rec(1), [&](const std::string&) { c.ep(1).request_merge_all(); });
  crash_sequencer_with_unstamped_sends(c);
  EXPECT_EQ(delivered_payloads(c.rec(1)), delivered_payloads(c.rec(2)));
  ASSERT_TRUE(c.structures_agree({1, 2}));
  c.ep(1).request_merge_all();
  ASSERT_TRUE(c.await([&]() {
    return c.ep(1).eview().structure.svsets().size() == 1 &&
           c.structures_agree({1, 2});
  }));
  c.ep(1).request_merge_all();
  ASSERT_TRUE(c.await([&]() {
    return c.ep(1).eview().degenerate() && c.structures_agree({1, 2});
  }));
  EXPECT_TRUE(c.ep(2).eview().degenerate());
}

TEST(Evs, MergeRequestedDuringViewChangeIsReissued) {
  EvsCluster c({.sites = 3, .seed = 31});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Start a view change (crash), then immediately request a merge on a
  // frozen member; the request must be re-issued in the new view with
  // whatever ids still exist (here: all three sv-sets shrink to two).
  c.world().crash_site(c.site(2));
  // Find a frozen moment.
  ASSERT_TRUE(c.await([&]() { return c.ep(0).blocked(); }, 10 * kSecond,
                      1 * kMillisecond));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.world().run_for(5 * kSecond);
  // The queued merge-all used stale (3-wide) ids; it is allowed to be
  // rejected. But the endpoint must not wedge: a fresh merge-all works.
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
}

TEST(Evs, StructureNeverGrowsWithoutApplicationAction) {
  // Subviews/sv-sets only merge under application control: a view change
  // alone (join) must never combine existing subviews.
  EvsCluster c({.sites = 4, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const std::size_t before = c.ep(0).eview().structure.subviews().size();
  EXPECT_EQ(before, 3u);
  c.spawn_at(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  EXPECT_EQ(c.ep(0).eview().structure.subviews().size(), 4u);
  EXPECT_EQ(c.ep(0).eview().structure.svsets().size(), 4u);
}

TEST(Evs, EvSeqResetsPerView) {
  EvsCluster c({.sites = 2});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().ev_seq == 1; }));
  c.world().crash_site(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0}));
  EXPECT_EQ(c.ep(0).eview().ev_seq, 0u);
}

TEST(Evs, ContextBytesAccountedInStats) {
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  EXPECT_GT(c.ep(0).evs_stats().context_bytes, 0u);
}

// Property test: random crashes/partitions with periodic merge attempts;
// structures must stay valid partitions and agree within every stable view.
class EvsRandomFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvsRandomFaults, StructuresStayValidAndConsistent) {
  const std::uint64_t seed = GetParam();
  EvsCluster c({.sites = 4, .seed = seed});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));

  sim::Rng rng(seed * 7919);
  sim::FaultProfile profile;
  profile.mean_interval = 1 * kSecond;
  const SimTime horizon = c.world().scheduler().now() + 8 * kSecond;
  auto plan = sim::random_fault_plan(rng, c.sites(), horizon, profile);
  plan.arm(c.world());

  while (c.world().scheduler().now() < horizon) {
    // Whoever is alive keeps merging and chatting.
    for (std::size_t i = 0; i < 4; ++i) {
      if (!c.world().site_alive(c.site(i))) continue;
      c.rec(i).multicast("t" + std::to_string(i));
      if (rng.bernoulli(0.3)) c.ep(i).request_merge_all();
      // Structures are validated on every application inside the endpoint;
      // this re-checks from the outside.
      c.ep(i).eview().structure.validate(c.ep(i).eview().view.members);
    }
    c.world().run_for(200 * kMillisecond);
  }
  c.world().network().heal();
  ASSERT_TRUE(c.await([&]() {
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < 4; ++i)
      if (c.world().site_alive(c.site(i))) alive.push_back(i);
    if (alive.empty()) return false;
    return c.stable_view_among(alive) && c.structures_agree(alive);
  }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvsRandomFaults,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace evs::test
