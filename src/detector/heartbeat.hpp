// Unreliable heartbeat failure detector.
//
// Each process heartbeats every site in a configured universe and suspects
// a peer whose heartbeats have not arrived within `suspect_timeout`. The
// detector is *unreliable* by construction (Section 2 of the paper):
// long delays, message loss or partitions make it suspect processes that
// are actually alive — a "false suspicion" the membership layer must
// absorb as a view change like any real failure.
//
// The detector is a passive component embedded in a host actor (the
// view-synchrony endpoint); the host owns the wire and the timers and
// feeds incoming heartbeats in, so this class is pure, unit-testable
// timing/bookkeeping logic.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evs::detector {

struct DetectorConfig {
  SimDuration heartbeat_interval = 20 * kMillisecond;
  SimDuration suspect_timeout = 120 * kMillisecond;
};

struct DetectorStats {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t unsuspicions = 0;
};

/// Services the owning actor provides to the detector.
struct DetectorHost {
  /// Sends a heartbeat (framed by the host) to the given site.
  std::function<void(SiteId)> send_heartbeat;
  /// Schedules a callback after a simulated delay.
  std::function<void(SimDuration, std::function<void()>)> set_timer;
  /// Current simulated time.
  std::function<SimTime()> now;
  /// Optional trace sink; suspicion/unsuspicion transitions are recorded
  /// when set and enabled.
  obs::TraceBus* trace = nullptr;
};

class HeartbeatDetector {
 public:
  /// `on_change` fires whenever the reachable set (sorted, always
  /// containing self) changes between evaluations (see evaluate()).
  using ChangeCallback = std::function<void(const std::vector<ProcessId>&)>;

  HeartbeatDetector(ProcessId self, std::vector<SiteId> universe,
                    DetectorHost host, DetectorConfig config,
                    ChangeCallback on_change);

  /// Begins the periodic heartbeat/evaluation loop.
  void start();

  /// Host feeds every received heartbeat here.
  void on_heartbeat(ProcessId from);

  /// Counts `id` as heard now without a heartbeat from it, so it stays
  /// reachable for one suspect timeout. The host calls this for the
  /// members of a view it installs: each of them acked that view's round,
  /// so it was alive moments ago even if its heartbeats have not arrived.
  void presume_alive(ProcessId id);

  /// Records a voluntary leave: the process is treated as permanently
  /// unreachable immediately, without waiting for a timeout.
  void mark_left(ProcessId id);

  /// Sorted reachable set, including self.
  std::vector<ProcessId> reachable() const;

  bool is_reachable(ProcessId id) const;

  /// True when every site of the universe has a reachable process.
  bool hears_every_site() const;

  /// Compares the reachable set with the last one reported and fires
  /// `on_change` if they differ. The tick calls it every heartbeat
  /// interval; a host that learns of a change between ticks may call it
  /// at once.
  void evaluate();

  /// When `id` last became reachable (its first heartbeat, or
  /// presume_alive, after being unheard or suspected); 0 when it never was.
  SimTime reachable_since(ProcessId id) const;

  const DetectorStats& stats() const { return stats_; }
  const DetectorConfig& config() const { return config_; }

  /// Projects the stats struct into `registry` as counters under `prefix`.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;

 private:
  void tick();
  /// Records `id` as heard now; a newer incarnation at its site
  /// supersedes (forgets) every older one.
  void mark_heard(ProcessId id);

  ProcessId self_;
  std::vector<SiteId> universe_;
  DetectorHost host_;
  DetectorConfig config_;
  ChangeCallback on_change_;
  DetectorStats stats_;

  std::unordered_map<ProcessId, SimTime> last_seen_;
  std::unordered_map<ProcessId, SimTime> reachable_since_;
  std::unordered_set<ProcessId> left_;
  std::vector<ProcessId> last_reported_;
  bool started_ = false;
};

}  // namespace evs::detector
