#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "objects/lock_manager.hpp"
#include "objects/mergeable_kv.hpp"
#include "objects/parallel_db.hpp"
#include "objects/replicated_file.hpp"
#include "common/log.hpp"
#include "support/object_cluster.hpp"

namespace evs::test {
namespace {

using app::ClassifierMode;
using app::GroupObjectConfig;
using app::Mode;
using objects::LockManager;
using objects::MergeableKv;
using objects::ParallelDb;
using objects::ReplicatedFile;
using objects::ReplicatedFileConfig;

ReplicatedFileConfig file_config(const std::vector<SiteId>& universe,
                                 ClassifierMode classifier = ClassifierMode::Enriched) {
  ReplicatedFileConfig cfg;
  cfg.object.endpoint.universe = universe;
  cfg.object.classifier = classifier;
  return cfg;
}

GroupObjectConfig plain_config(const std::vector<SiteId>& universe) {
  GroupObjectConfig cfg;
  cfg.endpoint.universe = universe;
  return cfg;
}

// SplitSmallLarge with chunks small enough that every state below streams
// in several of them.
ReplicatedFileConfig split_file_config(const std::vector<SiteId>& universe) {
  ReplicatedFileConfig cfg = file_config(universe);
  cfg.object.transfer = app::TransferStrategy::SplitSmallLarge;
  cfg.object.chunk_bytes = 1024;
  return cfg;
}

/// The last logged (state-complete) settle of `obj` that faced `problem`.
const app::SettleRecord* last_settle(const app::GroupObjectBase& obj,
                                     app::ProblemSet problem) {
  const app::SettleRecord* found = nullptr;
  for (const app::SettleRecord& rec : obj.settle_log()) {
    if (rec.problems & problem) found = &rec;
  }
  return found;
}

// ------------------------------------------------------- ReplicatedFile ---

TEST(ReplicatedFile, GroupFormsAndCreatesInitialState) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 1, [](const auto& u) { return file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(c.obj(i).state_current());
    EXPECT_GE(c.obj(i).object_stats().creations, 1u);
  }
}

TEST(ReplicatedFile, WriteReplicatesToAllMembers) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 2, [](const auto& u) { return file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).write("hello world"));
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.obj(i).content() != "hello world") return false;
    }
    return true;
  }));
  EXPECT_EQ(c.obj(1).read(), "hello world");
}

TEST(ReplicatedFile, ConcurrentWritesResolveByTotalOrder) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 3, [](const auto& u) { return file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).write("from-zero"));
  ASSERT_TRUE(c.obj(2).write("from-two"));
  ASSERT_TRUE(c.await([&]() {
    return c.obj(0).writes_applied() == 2 && c.obj(1).writes_applied() == 2 &&
           c.obj(2).writes_applied() == 2;
  }));
  // All replicas converge to the same winner at the same version.
  EXPECT_EQ(c.obj(0).content(), c.obj(1).content());
  EXPECT_EQ(c.obj(1).content(), c.obj(2).content());
  EXPECT_EQ(c.obj(0).version(), c.obj(2).version());
}

TEST(ReplicatedFile, MinorityPartitionIsReducedReadsOnly) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 4, [](const auto& u) { return file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).write("pre-partition"));
  ASSERT_TRUE(c.await([&]() { return c.obj(2).content() == "pre-partition"; }));

  c.world().network().set_partition({{c.site(0), c.site(1)}, {c.site(2)}});
  ASSERT_TRUE(c.await([&]() { return c.obj(2).mode() == Mode::Reduced; }));
  // R-mode: the reduced operation (read) works and may be stale; the full
  // operation (write) is refused.
  EXPECT_EQ(c.obj(2).read(), "pre-partition");
  EXPECT_FALSE(c.obj(2).write("should fail"));
  // The majority side keeps serving writes.
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  EXPECT_TRUE(c.obj(0).write("majority-write"));
}

TEST(ReplicatedFile, JoinTriggersTransferAndServingSubviewIsUndisturbed) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 5, [](const auto& u) { return file_config(u); }, {}, false);
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  ASSERT_TRUE(c.obj(0).write("important data"));
  ASSERT_TRUE(c.await([&]() { return c.obj(1).content() == "important data"; }));

  const auto failures_before = c.obj(0).mode_machine()->count(app::Transition::Failure);
  const auto reconf_before = c.obj(0).mode_machine()->count(app::Transition::Reconfigure);

  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_all_normal({0, 1, 2}));
  // The joiner received the state by transfer.
  EXPECT_EQ(c.obj(2).content(), "important data");
  EXPECT_GE(c.obj(2).object_stats().transfers, 1u);
  EXPECT_TRUE(c.obj(2).object_stats().last_problems & app::kStateTransfer);
  // The up-to-date subview was never disturbed: no Failure, no
  // Reconfigure at the old members (the enriched-view payoff).
  EXPECT_EQ(c.obj(0).mode_machine()->count(app::Transition::Failure),
            failures_before);
  EXPECT_EQ(c.obj(0).mode_machine()->count(app::Transition::Reconfigure),
            reconf_before);
}

TEST(ReplicatedFile, TotalFailureRecoversFreshestStateSkeenStyle) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 6, [](const auto& u) { return file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).write("v1"));
  ASSERT_TRUE(c.await([&]() { return c.obj(2).content() == "v1"; }));

  // Site 0 dies first; the surviving majority accepts one more write,
  // which site 0's stable store never sees.
  c.world().crash_site(c.site(0));
  ASSERT_TRUE(c.await_all_normal({1, 2}));
  ASSERT_TRUE(c.obj(1).write("v2-after-crash"));
  ASSERT_TRUE(c.await([&]() { return c.obj(2).content() == "v2-after-crash"; }));

  // Total failure, then everyone recovers.
  c.world().crash_site(c.site(1));
  c.world().crash_site(c.site(2));
  c.world().run_for(500 * kMillisecond);
  for (const SiteId site : c.sites()) c.world().respawn(site);
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  // State creation must pick the freshest copy — not site 0's stale "v1".
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.obj(i).content(), "v2-after-crash") << "site " << i;
  }
}

TEST(ReplicatedFile, PartitionHealTransfersToStaleMinority) {
  log::set_level(log::Level::Debug);
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 7, [](const auto& u) { return file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  c.world().network().set_partition({{c.site(0), c.site(1)}, {c.site(2)}});
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  ASSERT_TRUE(c.obj(0).write("written during partition"));
  c.world().run_for(2 * kSecond);

  c.world().network().heal();
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  EXPECT_EQ(c.obj(2).content(), "written during partition");
}

TEST(ReplicatedFile, WeightedVotesChangeTheQuorum) {
  // Site 0 alone holds 3 of 5 votes: it can keep writing when isolated.
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 8, [](const auto& u) {
        auto cfg = file_config(u);
        cfg.votes[u[0]] = 3;
        return cfg;
      });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  c.world().network().set_partition({{c.site(0)}, {c.site(1), c.site(2)}});
  ASSERT_TRUE(c.await([&]() {
    return c.obj(0).mode() == Mode::Normal && c.obj(0).view().size() == 1;
  }));
  EXPECT_TRUE(c.obj(0).write("dictator"));
  // The two-site side holds only 2 of 5 votes: reduced.
  ASSERT_TRUE(c.await([&]() { return c.obj(1).mode() == Mode::Reduced; }));
  EXPECT_FALSE(c.obj(1).write("nope"));
}

TEST(ReplicatedFile, FlatDiscoveryModeAlsoConvergesButPaysForIt) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 9,
      [](const auto& u) { return file_config(u, ClassifierMode::FlatDiscovery); },
      {}, false);
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  ASSERT_TRUE(c.obj(0).write("flat data"));
  ASSERT_TRUE(c.await([&]() { return c.obj(1).content() == "flat data"; }));

  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_all_normal({0, 1, 2}));
  EXPECT_EQ(c.obj(2).content(), "flat data");
  // The flat configuration had to run discovery rounds and could not
  // classify locally (ambiguity observed at least once).
  EXPECT_GT(c.obj(0).object_stats().discovery_rounds, 0u);
  EXPECT_GT(c.obj(2).object_stats().ambiguous_classifications, 0u);
  // And every member shipped a snapshot, not just subview reps.
  EXPECT_GT(c.obj(1).object_stats().discovery_messages, 0u);
}

TEST(ReplicatedFile, SplitTransferServesBeforeTheBulkArrives) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 31, [](const auto& u) { return split_file_config(u); }, {}, false);
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  const std::string big = std::string(16 * 1024, 'b') + "-end";
  ASSERT_TRUE(c.obj(0).write(big));
  ASSERT_TRUE(c.await([&]() { return c.obj(1).content() == big; }));

  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await([&]() {
    return c.all_normal(c.all_indices()) &&
           last_settle(c.obj(2), app::kStateTransfer) != nullptr;
  }));
  // The joiner served on the small part and finished on the chunks.
  const app::SettleRecord* rec = last_settle(c.obj(2), app::kStateTransfer);
  EXPECT_LT(rec->serve_ready, rec->fully_done);
  EXPECT_GT(c.obj(0).object_stats().chunk_messages +
                c.obj(1).object_stats().chunk_messages,
            0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.obj(i).content(), big) << "site " << i;
    EXPECT_EQ(c.obj(i).mode(), Mode::Normal) << "site " << i;
  }
}

TEST(ReplicatedFile, SplitCreationTakesTheWinnersChunks) {
  ObjectCluster<ReplicatedFile, ReplicatedFileConfig> c(
      3, 32, [](const auto& u) { return split_file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).write("v1"));
  ASSERT_TRUE(c.await([&]() { return c.obj(2).content() == "v1"; }));

  // Site 0 misses the big write; then every site fails, so the group must
  // create its state from the freshest (chunked) offer.
  c.world().crash_site(c.site(0));
  ASSERT_TRUE(c.await_all_normal({1, 2}));
  const std::string big = std::string(12 * 1024, 'c') + "-end";
  ASSERT_TRUE(c.obj(1).write(big));
  ASSERT_TRUE(c.await([&]() { return c.obj(2).content() == big; }));
  c.world().crash_site(c.site(1));
  c.world().crash_site(c.site(2));
  c.world().run_for(500 * kMillisecond);
  for (const SiteId site : c.sites()) c.world().respawn(site);

  ASSERT_TRUE(c.await([&]() {
    if (!c.all_normal(c.all_indices())) return false;
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.obj(i).content() != big) return false;
    }
    return true;
  }));
  // Some member adopted the winner's small part first and completed on
  // its chunks.
  bool waited_for_chunks = false;
  std::uint64_t chunks = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const app::SettleRecord* rec = last_settle(c.obj(i), app::kStateCreation);
    if (rec != nullptr && rec->serve_ready < rec->fully_done)
      waited_for_chunks = true;
    chunks += c.obj(i).object_stats().chunk_messages;
    EXPECT_GE(c.obj(i).object_stats().creations, 1u) << "site " << i;
  }
  EXPECT_TRUE(waited_for_chunks);
  EXPECT_GT(chunks, 0u);
}

// ----------------------------------------------------------- ParallelDb ---

std::set<std::string> distributed_scan(
    ObjectCluster<ParallelDb, GroupObjectConfig>& c,
    const std::vector<std::size_t>& indices, bool* exactly_once) {
  std::set<std::string> seen;
  *exactly_once = true;
  for (const std::size_t i : indices) {
    for (const auto& [key, value] : c.obj(i).local_scan()) {
      if (!seen.insert(key).second) *exactly_once = false;
    }
  }
  return seen;
}

TEST(ParallelDb, LookupResponsibilityCoversEveryKeyExactlyOnce) {
  ObjectCluster<ParallelDb, GroupObjectConfig> c(
      4, 10, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (int k = 0; k < 40; ++k)
    ASSERT_TRUE(c.obj(k % 4).insert("key" + std::to_string(k), "v"));
  ASSERT_TRUE(c.await([&]() { return c.obj(3).size() == 40; }));

  bool exactly_once = false;
  const auto covered = distributed_scan(c, c.all_indices(), &exactly_once);
  EXPECT_EQ(covered.size(), 40u);
  EXPECT_TRUE(exactly_once) << "a key was scanned by two members";
}

TEST(ParallelDb, ResponsibilityRebalancesAfterCrash) {
  ObjectCluster<ParallelDb, GroupObjectConfig> c(
      4, 11, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (int k = 0; k < 30; ++k)
    ASSERT_TRUE(c.obj(0).insert("key" + std::to_string(k), "v"));
  ASSERT_TRUE(c.await([&]() { return c.obj(3).size() == 30; }));

  c.world().crash_site(c.site(3));
  ASSERT_TRUE(c.await_all_normal({0, 1, 2}));
  bool exactly_once = false;
  const auto covered = distributed_scan(c, {0, 1, 2}, &exactly_once);
  EXPECT_EQ(covered.size(), 30u);  // nothing lost, nothing skipped
  EXPECT_TRUE(exactly_once);
}

TEST(ParallelDb, RModeDoesNotExistForThisObject) {
  // The paper: "the only external operation (look-up) can be performed in
  // any view. Thus, R-mode does not exist."
  ObjectCluster<ParallelDb, GroupObjectConfig> c(
      3, 12, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  c.world().network().set_partition({{c.site(0)}, {c.site(1), c.site(2)}});
  ASSERT_TRUE(c.await([&]() {
    return c.obj(0).view().size() == 1 && c.obj(0).mode() == Mode::Normal;
  }));
  EXPECT_EQ(c.obj(0).mode_machine()->count(app::Transition::Failure), 0u);
}

TEST(ParallelDb, PartitionedInsertsUnionOnHeal) {
  ObjectCluster<ParallelDb, GroupObjectConfig> c(
      4, 13, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  ASSERT_TRUE(c.await_all_normal({2, 3}));
  ASSERT_TRUE(c.obj(0).insert("left", "L"));
  ASSERT_TRUE(c.obj(2).insert("right", "R"));
  c.world().run_for(2 * kSecond);

  c.world().network().heal();
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.obj(i).get("left"), "L") << i;
    EXPECT_EQ(c.obj(i).get("right"), "R") << i;
    EXPECT_GE(c.obj(i).object_stats().merges, 1u);
  }
  bool exactly_once = false;
  distributed_scan(c, c.all_indices(), &exactly_once);
  EXPECT_TRUE(exactly_once);
}

// ---------------------------------------------------------- LockManager ---

GroupObjectConfig lock_config(const std::vector<SiteId>& universe) {
  return plain_config(universe);
}

// A lease long enough that these behavioural tests never cross expiry.
objects::LockConfig long_lease_config(const std::vector<SiteId>& universe) {
  return objects::LockConfig{plain_config(universe), 120 * kSecond};
}

TEST(LockManager, AcquireReleaseBasics) {
  ObjectCluster<LockManager, objects::LockConfig> c(3, 14, long_lease_config);
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(1).acquire());
  ASSERT_TRUE(c.await([&]() { return c.obj(1).i_hold_the_lock(); }));
  // Everyone agrees on the holder.
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(c.obj(i).holder(), c.obj(1).id());
  // A competing acquire does not steal.
  ASSERT_TRUE(c.obj(2).acquire());
  c.world().run_for(2 * kSecond);
  EXPECT_EQ(c.obj(2).holder(), c.obj(1).id());
  // Release frees it for the next acquirer.
  ASSERT_TRUE(c.obj(1).release());
  ASSERT_TRUE(c.await([&]() { return !c.obj(0).holder().has_value(); }));
  ASSERT_TRUE(c.obj(2).acquire());
  ASSERT_TRUE(c.await([&]() { return c.obj(2).i_hold_the_lock(); }));
}

TEST(LockManager, ConcurrentAcquiresGrantExactlyOne) {
  ObjectCluster<LockManager, objects::LockConfig> c(4, 15, long_lease_config);
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(c.obj(i).acquire());
  c.world().run_for(3 * kSecond);
  std::size_t holders = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (c.obj(i).i_hold_the_lock()) ++holders;
  }
  EXPECT_EQ(holders, 1u);
  // And everyone agrees who it is.
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_EQ(c.obj(i).holder(), c.obj(0).holder());
}

TEST(LockManager, MinorityHolderLosesLockMajorityRegrants) {
  ObjectCluster<LockManager, GroupObjectConfig> c(3, 16, lock_config);
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(2).acquire());
  ASSERT_TRUE(c.await([&]() { return c.obj(2).i_hold_the_lock(); }));

  // Isolate the holder in a minority.
  c.world().network().set_partition({{c.site(0), c.site(1)}, {c.site(2)}});
  ASSERT_TRUE(c.await([&]() { return c.obj(2).mode() == Mode::Reduced; }));
  EXPECT_FALSE(c.obj(2).i_hold_the_lock());  // lost with the quorum
  EXPECT_FALSE(c.obj(2).acquire());          // and cannot reacquire

  // The majority side can grant it to someone else.
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  ASSERT_TRUE(c.await([&]() { return c.obj(0).acquire(); }));
  ASSERT_TRUE(c.await([&]() { return c.obj(0).i_hold_the_lock(); }));

  // Safety across the whole system: never two holders.
  std::size_t holders = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (c.obj(i).i_hold_the_lock()) ++holders;
  }
  EXPECT_EQ(holders, 1u);

  // After healing, everyone converges on the majority's holder.
  c.world().network().heal();
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(c.obj(i).holder(), c.obj(0).id());
}

TEST(LockManager, HolderCrashFreesTheLock) {
  ObjectCluster<LockManager, GroupObjectConfig> c(3, 17, lock_config);
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(2).acquire());
  ASSERT_TRUE(c.await([&]() { return c.obj(2).i_hold_the_lock(); }));
  c.world().crash_site(c.site(2));
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  EXPECT_FALSE(c.obj(0).holder().has_value());
  ASSERT_TRUE(c.obj(1).acquire());
  ASSERT_TRUE(c.await([&]() { return c.obj(1).i_hold_the_lock(); }));
}

// ----------------------------------------------------------- MergeableKv ---

TEST(LockManager, LeaseExpiresAndLockCanBeReacquired) {
  // Fixed-term leases (the asynchronous-safety fence): a grant dies after
  // its term even if the holder never releases, and only then can anyone
  // re-acquire.
  objects::LockConfig cfg;
  ObjectCluster<LockManager, objects::LockConfig> c(
      3, 20, [](const auto& u) {
        return objects::LockConfig{plain_config(u), 1 * kSecond};
      });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).acquire());
  ASSERT_TRUE(c.await([&]() { return c.obj(0).i_hold_the_lock(); }));
  // A competitor is refused while the lease runs...
  ASSERT_TRUE(c.obj(1).acquire());
  c.world().run_for(300 * kMillisecond);
  EXPECT_FALSE(c.obj(1).i_hold_the_lock());
  // ...the holder's own belief ends exactly at expiry...
  c.world().run_for(1 * kSecond);
  EXPECT_FALSE(c.obj(0).i_hold_the_lock());
  EXPECT_FALSE(c.obj(2).holder().has_value());
  // ...and a fresh acquire succeeds.
  ASSERT_TRUE(c.obj(1).acquire());
  ASSERT_TRUE(c.await([&]() { return c.obj(1).i_hold_the_lock(); }));
}

TEST(MergeableKv, ProgressesInBothPartitionsAndMergesOnHeal) {
  ObjectCluster<MergeableKv, GroupObjectConfig> c(
      4, 18, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).put("shared", "original"));
  c.world().run_for(2 * kSecond);

  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  ASSERT_TRUE(c.await_all_normal({2, 3}));
  // Both sides keep accepting writes — the weak-consistency progress the
  // primary-partition model forbids.
  ASSERT_TRUE(c.obj(0).put("left-key", "L"));
  ASSERT_TRUE(c.obj(2).put("right-key", "R"));
  ASSERT_TRUE(c.obj(2).put("shared", "rewritten-right"));
  c.world().run_for(2 * kSecond);

  c.world().network().heal();
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.obj(i).get("left-key"), "L") << i;
    EXPECT_EQ(c.obj(i).get("right-key"), "R") << i;
    // LWW: the partition-era rewrite has the higher Lamport stamp.
    EXPECT_EQ(c.obj(i).get("shared"), "rewritten-right") << i;
    EXPECT_TRUE(c.obj(i).object_stats().last_problems & app::kStateMerging) << i;
  }
}

TEST(MergeableKv, SplitMergeWaitsForEveryClustersChunks) {
  ObjectCluster<MergeableKv, GroupObjectConfig> c(4, 33, [](const auto& u) {
    GroupObjectConfig cfg = plain_config(u);
    cfg.transfer = app::TransferStrategy::SplitSmallLarge;
    cfg.chunk_bytes = 256;
    return cfg;
  });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.obj(0).put("shared", "original"));
  c.world().run_for(2 * kSecond);

  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
  ASSERT_TRUE(c.await_all_normal({0, 1}));
  ASSERT_TRUE(c.await_all_normal({2, 3}));
  // Each side grows its state past several chunks.
  const std::string pad(64, 'p');
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(c.obj(0).put("left" + std::to_string(k), "L" + pad));
    ASSERT_TRUE(c.obj(3).put("right" + std::to_string(k), "R" + pad));
  }
  ASSERT_TRUE(c.obj(2).put("shared", "rewritten-right"));
  c.world().run_for(2 * kSecond);
  std::vector<std::uint64_t> chunks_before;
  for (std::size_t i = 0; i < 4; ++i)
    chunks_before.push_back(c.obj(i).object_stats().chunk_messages);

  c.world().network().heal();
  ASSERT_TRUE(c.await([&]() {
    if (!c.all_normal(c.all_indices())) return false;
    for (std::size_t i = 0; i < 4; ++i) {
      if (!(c.obj(i).object_stats().last_problems & app::kStateMerging))
        return false;
    }
    return true;
  }));
  c.world().run_for(2 * kSecond);
  // The merge needed both clusters' whole states, which came in chunks:
  // no member finished it before the last chunk left its sender (a
  // settle's chunk i goes out i + 1 chunk intervals after it started).
  const SimDuration interval = GroupObjectConfig{}.chunk_interval;
  std::size_t senders = 0;
  SimTime last_chunk_sent = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t sent =
        c.obj(i).object_stats().chunk_messages - chunks_before[i];
    if (sent == 0) continue;
    ++senders;
    const app::SettleRecord* rec = last_settle(c.obj(i), app::kStateMerging);
    ASSERT_NE(rec, nullptr) << i;
    last_chunk_sent = std::max(
        last_chunk_sent, rec->started + sent * interval);
  }
  EXPECT_EQ(senders, 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(last_settle(c.obj(i), app::kStateMerging)->fully_done,
              last_chunk_sent)
        << i;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.obj(i).size(), c.obj(0).size()) << i;
    EXPECT_EQ(c.obj(i).version(), c.obj(0).version()) << i;
    EXPECT_EQ(c.obj(i).get("shared"), "rewritten-right") << i;
    for (int k = 0; k < 16; ++k) {
      EXPECT_EQ(c.obj(i).get("left" + std::to_string(k)), "L" + pad) << i;
      EXPECT_EQ(c.obj(i).get("right" + std::to_string(k)), "R" + pad) << i;
    }
    EXPECT_EQ(c.obj(i).op_log().index(), c.obj(0).op_log().index()) << i;
    EXPECT_EQ(c.obj(i).op_log().hash(), c.obj(0).op_log().hash()) << i;
  }
}

TEST(MergeableKv, AllReplicasConvergeToIdenticalState) {
  ObjectCluster<MergeableKv, GroupObjectConfig> c(
      3, 19, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(
        c.obj(k % 3).put("k" + std::to_string(k % 7), "v" + std::to_string(k)));
  }
  c.world().run_for(3 * kSecond);
  for (int k = 0; k < 7; ++k) {
    const auto key = "k" + std::to_string(k);
    EXPECT_EQ(c.obj(0).get(key), c.obj(1).get(key));
    EXPECT_EQ(c.obj(1).get(key), c.obj(2).get(key));
  }
}

}  // namespace
}  // namespace evs::test
