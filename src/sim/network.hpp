// Simulated asynchronous network with partitions.
//
// This is the substrate substitution documented in DESIGN.md §2: the paper
// assumes a real asynchronous network where processes and links crash and
// the network partitions; we model it as point-to-point message passing
// with randomized delay (min + exponential jitter — unbounded, so the
// system is genuinely asynchronous), probabilistic loss, and a partition
// topology over *sites*. Messages crossing a partition boundary are
// dropped; optionally messages already in flight when a partition forms
// are dropped too (the default, matching a cable pull).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace evs::sim {

struct NetworkConfig {
  /// Fixed component of one-way delay.
  SimDuration min_delay = 200 * kMicrosecond;
  /// Mean of the exponential jitter added on top of min_delay.
  double mean_jitter_us = 800.0;
  /// Probability an individual message is lost even within a partition.
  double loss_rate = 0.0;
  /// Drop messages that are in flight when a partition separates the
  /// endpoints (checked again at delivery time).
  bool drop_in_flight_on_partition = true;
  /// Link bandwidth in bytes per simulated microsecond (0 = infinite).
  /// When finite, each directed link serialises its messages: a big
  /// snapshot occupies the link and delays everything queued behind it —
  /// required for the Section-5 state-transfer experiments.
  double bytes_per_us = 0.0;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_dead = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  /// Sends that handed the network a uniquely-owned buffer (send /
  /// send_to_site); each cost one heap buffer.
  std::uint64_t payload_copies = 0;
  /// Deliveries scheduled off a ref-counted buffer (send_multi); they cost
  /// no payload allocation at all.
  std::uint64_t payloads_shared = 0;
};

class Network {
 public:
  using Handler = std::function<void(ProcessId from, const Bytes& payload)>;

  Network(Scheduler& scheduler, Rng rng, NetworkConfig config = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the live incarnation at a destination. Messages addressed
  /// to any other ProcessId (e.g. a crashed incarnation) are dropped.
  void attach(ProcessId id, Handler handler);
  void detach(ProcessId id);
  bool attached(ProcessId id) const;

  /// Sends one message; delivery (if any) is scheduled on the scheduler.
  void send(ProcessId from, ProcessId to, Bytes payload);

  /// Sends to whatever incarnation is attached at `site` when the message
  /// arrives (models host:port addressing — the sender need not know the
  /// incarnation). Used for discovery traffic such as heartbeats.
  void send_to_site(ProcessId from, SiteId site, Bytes payload);

  /// Fan-out: schedules one delivery per recipient, all sharing `payload`'s
  /// buffer instead of copying it per destination. Wire semantics are
  /// identical to calling send() once per recipient — loss, partition,
  /// bandwidth and stats accounting all stay per-link.
  void send_multi(ProcessId from, const std::vector<ProcessId>& recipients,
                  SharedBytes payload);

  /// Installs a partition: each group is a connected component; any site
  /// not mentioned becomes isolated in its own component.
  void set_partition(const std::vector<std::vector<SiteId>>& groups);

  /// Restores full connectivity (partitions and one-way blocks alike).
  void heal();

  /// One-way block: messages sent from `from` to `to` are dropped while
  /// the reverse direction keeps working — the asymmetric failure behind
  /// a view split that nobody re-merges (only one side suspects).
  void block_link(SiteId from, SiteId to);
  void unblock_link(SiteId from, SiteId to);

  bool reachable(SiteId a, SiteId b) const;

  const NetworkStats& stats() const { return stats_; }
  NetworkConfig& config() { return config_; }

  /// Projects the stats struct into `registry` as counters under `prefix`.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "net") const;

 private:
  std::uint32_t component_of(SiteId site) const;
  SimDuration transit_delay(SiteId from, SiteId to, std::size_t bytes);
  /// Shared send path: stats, partition/loss checks and delay scheduling
  /// for one message to one destination site. When `to` is unset the live
  /// incarnation at `site` is resolved at delivery time (site addressing).
  void enqueue(ProcessId from, SiteId site, std::optional<ProcessId> to,
               SharedBytes payload);
  void deliver(ProcessId from, ProcessId to, const Bytes& payload,
               std::uint64_t version_at_send);

  Scheduler& scheduler_;
  Rng rng_;
  NetworkConfig config_;
  NetworkStats stats_;
  std::unordered_map<ProcessId, Handler> handlers_;
  std::unordered_map<SiteId, ProcessId> site_endpoint_;
  // Empty map means fully connected; otherwise site -> component index,
  // and unmapped sites are isolated (component = kIsolatedBase + site).
  std::unordered_map<SiteId, std::uint32_t> component_;
  bool partitioned_ = false;
  std::set<std::pair<SiteId, SiteId>> blocked_links_;
  // Per directed (src-site, dst-site) link: time the link frees up.
  std::map<std::pair<SiteId, SiteId>, SimTime> link_busy_until_;
  // Bumped on every topology change; used to detect "partition formed
  // while the message was in flight".
  std::uint64_t topology_version_ = 0;
};

}  // namespace evs::sim
