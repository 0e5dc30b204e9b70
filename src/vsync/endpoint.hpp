// View-synchronous communication endpoint.
//
// One Endpoint per process implements the paper's Section-2 service:
// a partitionable group-membership protocol integrated with reliable
// multicast such that
//
//   Agreement  (P2.1) — processes surviving from view v to the same next
//                        view deliver the same set of v's messages,
//   Uniqueness (P2.2) — a message is delivered in at most one view,
//   Integrity  (P2.3) — no duplicates, no spontaneous messages.
//
// Protocol sketch (coordinator-driven, restartable rounds):
//   * A heartbeat detector tracks a reachable set over a configured
//     universe of sites. When the reachable set disagrees with the current
//     view — or a heartbeat from a member of the view names a later view,
//     so the view was split without this process — and this process is
//     the minimum of the desired membership, it starts a round:
//     PROPOSE(round, members). The detector re-evaluates on its tick, or
//     at once when a heartbeat from a peer it did not hear leaves every
//     site of the universe heard.
//   * Members freeze (stop sending and delivering), then ACK with their
//     prior view id, their buffered ("unstable") messages of that view,
//     and an opaque flush context supplied by the upper layer (the
//     enriched-view structure, see src/evs/).
//   * When every proposed member has ACKed, the coordinator builds the
//     per-prior-view unions of unstable messages and INSTALLs the new
//     view. Each member first delivers the missing remainder of its own
//     prior view's union (still in the old view — Uniqueness), then
//     installs and unfreezes.
//   * Any failure or competing round restarts with a higher round number;
//     stale PROPOSE/ACK/INSTALL are discarded by round id.
//
// Concurrent views arise naturally: a coordinator can only assemble ACKs
// from its own partition, so each partition installs its own view.
//
// Within a view, delivery is FIFO per sender. A periodic stability gossip
// lets members garbage-collect messages that every view member has
// delivered (they can never be needed by a flush again).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "detector/heartbeat.hpp"
#include "gms/policy.hpp"
#include "gms/view.hpp"
#include "gms/wire.hpp"
#include "runtime/runtime.hpp"

namespace evs::vsync {

struct EndpointConfig {
  /// All sites that may ever host a group member (discovery bootstrap).
  std::vector<SiteId> universe;
  detector::DetectorConfig detector;
  gms::JoinPolicy policy = gms::JoinPolicy::Batch;
  /// Coordinator restarts an unfinished round after this long.
  SimDuration round_retry = 300 * kMillisecond;
  /// Periodic reconfiguration check interval.
  SimDuration check_interval = 40 * kMillisecond;
  /// A member frozen longer than this tries to coordinate itself out.
  SimDuration stale_block_timeout = 400 * kMillisecond;
  /// Stability-gossip period; 0 disables GC (all view messages buffered).
  SimDuration stability_interval = 100 * kMillisecond;
};

/// Everything delivered alongside a new view, for upper layers that merge
/// state across the view change (the enriched-view layer reads both).
struct InstallInfo {
  const std::vector<gms::MemberContext>& contexts;
  const std::vector<std::pair<ViewId, std::vector<gms::FlushedMessage>>>& unions;
};

/// Upper-layer interface.
class Delegate {
 public:
  virtual ~Delegate() = default;

  /// A new view was installed. All flush deliveries for the old view have
  /// already happened.
  virtual void on_view(const gms::View& view, const InstallInfo& info) = 0;

  /// A multicast was delivered in the current view.
  virtual void on_deliver(ProcessId sender, const Bytes& payload) = 0;

  /// Called when this member freezes for a view change; the returned bytes
  /// travel with the ACK and reappear in InstallInfo::contexts.
  virtual Bytes flush_context() { return {}; }

  /// Notification that sending is now blocked (flush in progress).
  virtual void on_block() {}
};

struct EndpointStats {
  std::uint64_t views_installed = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t data_multicast = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t flush_deliveries = 0;  // delivered from an install union
  std::uint64_t messages_discarded = 0;
  std::uint64_t install_bytes = 0;
  std::uint64_t ack_bytes = 0;
  std::uint64_t stability_gc_messages = 0;
  /// Wire frames built by this endpoint — with encode-once fan-out this
  /// advances by 1 per multicast/PROPOSE/INSTALL/stability burst, not by
  /// n−1 (asserted by tests and reported by benches).
  std::uint64_t frames_encoded = 0;
  std::uint64_t frame_bytes_encoded = 0;
  std::size_t buffer_peak = 0;
  SimTime last_install_time = 0;
};

class Endpoint : public runtime::Node {
 public:
  explicit Endpoint(EndpointConfig config);
  ~Endpoint() override;

  /// Must be called before the first event fires (i.e., right at spawn).
  void set_delegate(Delegate* delegate) { delegate_ = delegate; }

  /// Multicasts to the current view. While frozen for a view change the
  /// payload is queued and sent in the next view.
  void multicast(Bytes payload);

  /// Announces departure and crashes this incarnation.
  void leave();

  /// Application-driven reconfiguration nudge: runs the same reachability
  /// check the periodic timer runs, immediately. Used by the admin plane's
  /// /join command to pull reachable peers into a view on demand instead
  /// of waiting out the next check tick.
  void reconfigure() { maybe_coordinate(); }

  /// True once leave() announced this incarnation's departure.
  bool left() const { return left_; }

  const gms::View& view() const { return view_; }
  bool blocked() const { return acked_round_.has_value(); }
  /// Messages currently buffered for a potential flush.
  std::size_t buffer_size() const { return buffer_.size(); }
  const EndpointStats& stats() const { return stats_; }
  const EndpointConfig& config() const { return config_; }

  /// Projects the endpoint's and its detector's stats into `registry` as
  /// counters under `prefix` (e.g. "p0.vsync"), for MetricsRegistry
  /// snapshots; the stats structs remain the cheap direct accessors.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;

  // runtime::Node interface.
  void on_start() override;
  void on_message(ProcessId from, const Bytes& payload) override;
  /// Admin-plane /status body: view id, membership and core counters.
  std::string admin_status_json() const override;

 protected:
  /// The key/value fields of admin_status_json() without the surrounding
  /// braces, so derived endpoints (EvsEndpoint) can splice in their own.
  std::string admin_status_fields() const;

 private:
  struct PerSender {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, Bytes> pending;  // received out of order
  };

  struct Coordinating {
    gms::RoundId round;
    std::vector<ProcessId> proposed;
    std::map<ProcessId, gms::Ack> acks;
  };

  void handle_heartbeat(ProcessId from, Decoder& dec);
  void handle_membership(ProcessId from, Decoder& dec);
  void handle_data(ProcessId from, Decoder& dec);
  void handle_stability(ProcessId from, Decoder& dec);
  void handle_leave(ProcessId from);

  void handle_propose(ProcessId from, const gms::Propose& msg);
  /// True while a proposal from a just-heard proposer would drop a member
  /// of our view that we still hear (see handle_propose).
  bool excludes_heard_member(ProcessId proposer,
                             const std::vector<ProcessId>& members) const;
  void handle_ack(ProcessId from, const gms::Ack& msg);
  void handle_install(const gms::Install& msg);

  void on_reachability_change();
  void maybe_coordinate();
  void start_round(std::vector<ProcessId> members);
  void finish_round();
  void install_singleton();
  void check_tick();
  void collect_garbage();

  void accept_data(ProcessId sender, gms::DataMsg msg);
  void try_deliver(ProcessId sender);
  void deliver(ProcessId sender, std::uint64_t seq, const Bytes& payload);
  bool already_delivered(ProcessId sender, std::uint64_t seq) const;

  /// Builds the wire frame exactly once, counting the encode work.
  SharedBytes frame_once(gms::Channel channel, Encoder&& body);
  /// Encode-once fan-out: frames `body` once and shares the buffer across
  /// every member of `recipients` except self. When there is no remote
  /// recipient the frame is never built.
  void fan_out(const std::vector<ProcessId>& recipients, gms::Channel channel,
               Encoder&& body);
  /// Thin single-recipient wrapper over the shared path.
  void send_framed(ProcessId to, gms::Channel channel, Encoder&& body);

  void stability_tick();
  gms::Ack make_ack(gms::RoundId round);

  EndpointConfig config_;
  Delegate* delegate_ = nullptr;
  std::unique_ptr<detector::HeartbeatDetector> detector_;

  gms::View view_;
  std::uint64_t max_number_seen_ = 0;
  std::uint64_t send_seq_ = 0;

  // Messages of the current view (sent + received), keyed (sender, seq);
  // the flush summary. Stability GC trims it.
  std::map<std::pair<ProcessId, std::uint64_t>, Bytes> buffer_;
  std::unordered_map<ProcessId, PerSender> streams_;

  // Freeze state: highest round ACKed; set while a view change is pending.
  std::optional<gms::RoundId> acked_round_;
  SimTime blocked_since_ = 0;
  std::deque<Bytes> pending_sends_;

  std::optional<Coordinating> coordinating_;

  // DATA that arrived for a view we have not installed yet.
  std::map<ViewId, std::vector<std::pair<ProcessId, gms::DataMsg>>> future_stash_;
  static constexpr std::size_t kMaxStashPerView = 4096;

  // Stability gossip state: latest per-member delivered vectors.
  std::map<ProcessId, std::vector<std::uint64_t>> stability_reports_;

  EndpointStats stats_;
  bool left_ = false;
  /// A member of the current view reported a later view in a heartbeat:
  /// this view is dead even though the reachable set still matches it.
  bool superseded_ = false;
};

}  // namespace evs::vsync
