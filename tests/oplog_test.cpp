// Ordered-op log over the simulated world: the cut rule on a volatile
// restart under load, and a seeded churn of the durable path (op records
// in the per-site stable store, generic op-suffix delta rejoin) for
// LogShard and MergeableKv. Plus unit tests of the log's ring.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/op_log.hpp"
#include "log/log_shard.hpp"
#include "objects/mergeable_kv.hpp"
#include "sim/rng.hpp"
#include "support/object_cluster.hpp"

namespace evs::test {
namespace {

using runtime::SvcOp;
using runtime::SvcRequest;
using runtime::SvcResponse;
using runtime::SvcStatus;

/// The object's encoded state and op-log position, as recovery must
/// rebuild them.
struct Image {
  Bytes state;
  std::uint64_t index = 0;
  std::uint64_t hash = 0;

  bool operator==(const Image&) const = default;
};

/// Exposes the state and remembers what on_start recovered (the singleton
/// view it installs right after adopts the local state unchanged).
template <typename Base>
class Probe : public Base {
 public:
  using Base::Base;

  Image image() const {
    return Image{this->snapshot_state(), this->op_log().index(),
                 this->op_log().hash()};
  }
  const Image& recovered() const { return recovered_; }

  void on_start() override {
    Base::on_start();
    recovered_ = image();
  }

 private:
  Image recovered_;
};

using Shard = Probe<log::LogShard>;
using Kv = Probe<objects::MergeableKv>;

SvcRequest make_req(SvcOp op, std::string key, std::string value = {}) {
  SvcRequest req;
  req.op = op;
  req.key = std::move(key);
  req.value = std::move(value);
  return req;
}

/// Ok answers collected from asynchronously issued writes: value -> the
/// response's value (LogAppend: the global position).
struct Acks {
  std::map<std::string, std::string> ok;
  std::size_t issued = 0;

  runtime::SvcRespondFn slot(std::string value) {
    ++issued;
    return [this, value = std::move(value)](SvcResponse resp) {
      if (resp.status == SvcStatus::Ok) ok[value] = resp.value;
    };
  }
};

// ------------------------------------------------------------- LogShard --

log::LogShardConfig shard_config(const std::vector<SiteId>& universe,
                                 bool durable) {
  log::LogShardConfig cfg;
  cfg.object.endpoint.universe = universe;
  cfg.object.persist_state = durable;
  cfg.object.delta_transfer = durable;
  return cfg;
}

using ShardCluster = ObjectCluster<Shard, log::LogShardConfig>;

void append_async(ShardCluster& c, std::size_t at, Acks& acks,
                  const std::string& record) {
  c.obj(at).svc_request(make_req(SvcOp::LogAppend, "k", record),
                        acks.slot(record));
}

std::string read(ShardCluster& c, std::size_t at, const std::string& pos) {
  std::string got = "<none>";
  c.obj(at).svc_request(make_req(SvcOp::LogRead, pos),
                        [&got](SvcResponse resp) {
                          got = resp.status == SvcStatus::Ok
                                    ? resp.value
                                    : "<status " +
                                          std::to_string(static_cast<int>(
                                              resp.status)) +
                                          ">";
                        });
  return got;
}

bool tails_agree(ShardCluster& c) {
  const std::uint64_t tail = c.obj(0).global_tail();
  for (const std::size_t i : c.all_indices())
    if (c.obj(i).global_tail() != tail) return false;
  return true;
}

/// Every acked record reads back at its acked position at every replica.
void expect_acked_log(ShardCluster& c, const Acks& acks) {
  for (const std::size_t i : c.all_indices()) {
    std::size_t wrong = 0;
    for (const auto& [record, pos] : acks.ok) {
      if (read(c, i, pos) != "D" + record) ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << "replica " << i << " of " << acks.ok.size()
                         << " acked positions, tail "
                         << c.obj(i).global_tail();
  }
}

// The volatile restart of the shifted log: a follower restarted while the
// coordinator appends delivers ops of the new view before the Offer
// snapshot installs; they must be re-applied past the Offer's cut (the
// view's install) or the follower's log comes out short and shifted.
TEST(CutRule, VolatileRestartUnderAppendsKeepsEveryAckedPosition) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ShardCluster c(3, seed,
                   [](const auto& u) { return shard_config(u, false); });
    ASSERT_TRUE(c.await_all_normal(c.all_indices()));
    ASSERT_EQ(c.world().live_process(c.site(0)),
              c.obj(0).view().id.coordinator);
    c.world().crash_site(c.site(2));
    ASSERT_TRUE(c.await_all_normal({0, 1}));
    Acks acks;
    for (int i = 0; i < 4; ++i) append_async(c, 0, acks, "pre" + std::to_string(i));
    ASSERT_TRUE(c.await([&]() { return acks.ok.size() == 4; }));

    c.world().respawn(c.site(2));
    for (int t = 0; t < 3000; ++t) {
      append_async(c, 0, acks, "r" + std::to_string(t));
      c.world().run_for(100 * kMicrosecond);
    }
    ASSERT_TRUE(c.await_all_normal(c.all_indices()));
    ASSERT_TRUE(c.await([&]() { return tails_agree(c); }));
    EXPECT_GT(acks.ok.size(), 1000u);
    expect_acked_log(c, acks);
    EXPECT_EQ(c.obj(2).image(), c.obj(0).image());
  }
}

// ------------------------------------------------------------ the churn --

app::GroupObjectConfig kv_config(const std::vector<SiteId>& universe) {
  app::GroupObjectConfig cfg;
  cfg.endpoint.universe = universe;
  cfg.persist_state = true;
  cfg.delta_transfer = true;
  return cfg;
}

using KvCluster = ObjectCluster<Kv, app::GroupObjectConfig>;

/// Totals over every seed, for the sanity checks that the durable path —
/// recovery and delta rejoin — really ran.
struct ChurnTotals {
  std::uint64_t restarts = 0;
  std::uint64_t recovered_ops = 0;
  std::uint64_t delta_installs = 0;
  std::uint64_t full_fallbacks = 0;
  std::uint64_t acked = 0;
};

/// One seeded schedule: writes at site 0 every millisecond for 2 s while
/// followers 1 and 2 are killed and restarted (often with writes in
/// flight) and one follower is partitioned off and healed. Site 0 is
/// never killed: the coordinator acks on self-delivery, before any other
/// replica holds the op. Checks at every restart that recovery rebuilt
/// the state the crashed incarnation had, and at the end that every
/// acked write reads back at every replica and that the replicas agree.
template <typename Cluster>
void run_churn(Cluster& c, std::uint64_t seed, ChurnTotals& totals,
               const std::function<void(Cluster&, Acks&, int)>& write) {
  sim::Rng rng(seed * 7919 + 17);
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  Acks acks;
  std::map<std::size_t, Image> at_crash;  // dead follower -> its last image
  bool partitioned = false;
  bool partition_done = false;
  SimTime next_event = 100 * kMillisecond + rng.uniform(100) * kMillisecond;
  const SimTime start = c.world().scheduler().now();
  for (int t = 0; t < 2000; ++t) {
    write(c, acks, t);
    c.world().run_for(kMillisecond);
    if (c.world().scheduler().now() - start < next_event) continue;
    next_event += 100 * kMillisecond + rng.uniform(150) * kMillisecond;
    const std::size_t f = 1 + rng.uniform(2);
    if (partitioned) {
      c.world().network().heal();
      partitioned = false;
    } else if (!at_crash.contains(f) && at_crash.empty() && rng.uniform(3) != 0) {
      at_crash[f] = c.obj(f).image();
      c.world().crash_site(c.site(f));
    } else if (!at_crash.empty()) {
      const std::size_t dead = at_crash.begin()->first;
      const Image before = at_crash.begin()->second;
      at_crash.erase(at_crash.begin());
      c.world().respawn(c.site(dead));
      c.world().run_for(0);  // runs on_start
      ++totals.restarts;
      EXPECT_EQ(c.obj(dead).recovered(), before)
          << "restart of site " << dead << " at t=" << t;
    } else if (!partition_done) {
      std::vector<SiteId> rest;
      for (const std::size_t i : c.all_indices())
        if (i != f) rest.push_back(c.site(i));
      c.world().network().set_partition({{c.site(f)}, rest});
      partitioned = true;
      partition_done = true;
    }
  }
  c.world().network().heal();
  for (const auto& [dead, before] : at_crash) {
    c.world().respawn(c.site(dead));
    c.world().run_for(0);
    ++totals.restarts;
    EXPECT_EQ(c.obj(dead).recovered(), before);
  }
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  c.world().run_for(500 * kMillisecond);  // let followers apply the tail
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  totals.acked += acks.ok.size();
  EXPECT_GT(acks.ok.size(), 100u);
  c.check_acks(acks);
  for (const std::size_t i : c.all_indices()) {
    EXPECT_EQ(c.obj(i).image(), c.obj(0).image()) << "replica " << i;
    const app::ObjectStats& stats = c.obj(i).object_stats();
    totals.recovered_ops += stats.recovered_ops;
    totals.delta_installs += stats.delta_installs;
    totals.full_fallbacks += stats.delta_full_fallbacks;
  }
}

struct DurableShards : ShardCluster {
  explicit DurableShards(std::uint64_t seed)
      : ShardCluster(3, seed,
                     [](const auto& u) { return shard_config(u, true); }) {}
  void check_acks(const Acks& acks) {
    ASSERT_TRUE(await([&]() { return tails_agree(*this); }));
    expect_acked_log(*this, acks);
  }
};

struct DurableKvs : KvCluster {
  explicit DurableKvs(std::uint64_t seed) : KvCluster(3, seed, kv_config) {}
  void check_acks(const Acks& acks) {
    for (const std::size_t i : all_indices()) {
      std::size_t wrong = 0;
      for (const auto& [value, unused] : acks.ok) {
        (void)unused;
        // Every put wrote its own key "k<n>" with value "v<n>".
        if (obj(i).get("k" + value.substr(1)) != value) ++wrong;
      }
      EXPECT_EQ(wrong, 0u) << "replica " << i << " of " << acks.ok.size();
    }
  }
};

TEST(DurableChurn, LogShardAckedPositionsSurviveKillRestartAndPartition) {
  ChurnTotals totals;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DurableShards c(seed);
    run_churn<DurableShards>(c, seed, totals,
                             [](DurableShards& cl, Acks& acks, int t) {
                               if (cl.obj(0).serving_normal())
                                 append_async(cl, 0, acks,
                                              "r" + std::to_string(t));
                             });
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(totals.restarts, 50u);
  EXPECT_GT(totals.recovered_ops, 0u);
  EXPECT_GT(totals.delta_installs, 0u);
  RecordProperty("acked", std::to_string(totals.acked));
}

TEST(DurableChurn, MergeableKvAckedKeysSurviveKillRestartAndPartition) {
  ChurnTotals totals;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DurableKvs c(seed);
    run_churn<DurableKvs>(c, seed, totals, [](DurableKvs& cl, Acks& acks, int t) {
      const std::string n = std::to_string(t);
      cl.obj(0).svc_request(make_req(SvcOp::Put, "k" + n, "v" + n),
                            acks.slot("v" + n));
    });
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(totals.restarts, 50u);
  EXPECT_GT(totals.recovered_ops, 0u);
  // A kv serves in every view, so a restarted member is a serving cluster
  // of its own: its rejoin is a state merge, never a delta transfer.
  EXPECT_EQ(totals.delta_installs, 0u);
}

// ------------------------------------------------------------- the ring --

app::LoggedOp op(std::uint32_t site, std::uint64_t seq, std::size_t bytes) {
  return app::LoggedOp{ProcessId{SiteId{site}, 1}, seq,
                       Bytes(bytes, static_cast<std::uint8_t>(seq))};
}

TEST(OpLogRing, SuffixAfterAKnownBasisAndFallbacks) {
  app::OpLog log(app::OpLogConfig{1000, 1 << 20});
  std::vector<std::uint64_t> hashes = {log.hash()};
  for (std::uint64_t i = 1; i <= 5; ++i) {
    log.append(op(1, i, 100));
    hashes.push_back(log.hash());
  }
  const auto suffix = log.suffix_after(2, hashes[2], 1 << 16);
  ASSERT_TRUE(suffix.has_value());
  ASSERT_EQ(suffix->size(), 3u);
  EXPECT_EQ(*(*suffix)[0], op(1, 3, 100));
  // Current position: an empty suffix. Unknown or foreign bases: none.
  EXPECT_EQ(log.suffix_after(5, hashes[5], 1 << 16)->size(), 0u);
  EXPECT_FALSE(log.suffix_after(6, 0, 1 << 16).has_value());
  EXPECT_FALSE(log.suffix_after(2, hashes[3], 1 << 16).has_value());
  // A suffix that would not fit the budget is no suffix.
  EXPECT_FALSE(log.suffix_after(0, hashes[0], 250).has_value());
}

TEST(OpLogRing, RingIsByteBoundedAndForgetsOldBases) {
  app::OpLog log(app::OpLogConfig{1000, 1 << 20});
  std::vector<std::uint64_t> hashes = {log.hash()};
  for (std::uint64_t i = 1; i <= 50; ++i) {
    log.append(op(2, i, 100));
    hashes.push_back(log.hash());
  }
  EXPECT_LE(log.ring_bytes(), 1000u);
  EXPECT_EQ(log.ring_size(), 10u);
  EXPECT_FALSE(log.suffix_after(39, hashes[39], 1 << 16).has_value());
  EXPECT_EQ(log.suffix_after(40, hashes[40], 1 << 16)->size(), 10u);
  // A replaced state forgets the old history's ops.
  log.reset(7, 1234);
  EXPECT_EQ(log.ring_size(), 0u);
  EXPECT_EQ(log.suffix_after(7, 1234, 1 << 16)->size(), 0u);
  EXPECT_FALSE(log.suffix_after(40, hashes[40], 1 << 16).has_value());
}

TEST(OpLogRing, NoRingAnswersNothingButTheCurrentPosition) {
  app::OpLog log;
  log.append(op(1, 1, 10));
  EXPECT_FALSE(log.suffix_after(0, 0, 1 << 16).has_value());
  EXPECT_EQ(log.ring_size(), 0u);
}

}  // namespace
}  // namespace evs::test
