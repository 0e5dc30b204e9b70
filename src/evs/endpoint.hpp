// Enriched view synchrony endpoint (Section 6) — the paper's contribution.
//
// EvsEndpoint extends the view-synchronous endpoint with subview / sv-set
// structure and the two application calls SV-SetMerge and SubviewMerge.
// The guarantees of Section 6.1 are realised as follows:
//
//   Total Order (P6.1): every e-view change is emitted by the view's
//     primary (acting as sequencer) through the view-synchronous channel;
//     FIFO from a single source totally orders them within the view.
//
//   Causal Order / consistent cuts (P6.2): *application* multicasts are
//     also routed through the sequencer: a member multicasts its payload
//     unstamped (Fwd), the sequencer re-multicasts it stamped, and every
//     member delivers in stamp order. The interleaving of app messages and
//     e-view changes is thus the sequencer's single FIFO stream — identical
//     at every member, hence every e-view change falls on a consistent cut.
//     This is the repo's only total-order implementation.
//
//   Structure (P6.3): each member's flush context carries its frozen
//     structure + applied e-view count; at install every member runs the
//     same deterministic merge_structures() over the same contexts and
//     flush unions, so survivors that shared a subview (sv-set) remain
//     together and newcomers appear as singleton subviews in singleton
//     sv-sets.
//
// Growth of subviews/sv-sets happens only through the merge calls; views
// shrinking (failures) shrink the structure asynchronously — matching the
// paper's asymmetry.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "evs/structure.hpp"
#include "vsync/endpoint.hpp"

namespace evs::core {

/// Upper-layer interface for enriched view synchrony.
class EvsDelegate {
 public:
  virtual ~EvsDelegate() = default;

  /// A new e-view: fired on every view change and on every applied e-view
  /// change within a view. `eview.ev_seq` distinguishes the two (0 right
  /// after a view change).
  virtual void on_eview(const EView& eview) = 0;

  /// A totally-ordered application multicast.
  /// (Named distinctly from vsync::Delegate::on_deliver so that a class
  /// inheriting both interfaces — e.g. app::GroupObjectBase, which *is*
  /// an EvsEndpoint and implements EvsDelegate — cannot accidentally
  /// override the lower layer's hook with the same signature.)
  virtual void on_app_deliver(ProcessId sender, const Bytes& payload) = 0;

  /// Sending is blocked: a view change has begun.
  virtual void on_app_block() {}
};

struct EvsStats {
  std::uint64_t eviews_delivered = 0;
  std::uint64_t ev_changes_applied = 0;
  std::uint64_t merges_requested = 0;
  std::uint64_t merges_rejected = 0;  // invalid at sequencing time
  std::uint64_t app_sent = 0;
  std::uint64_t app_delivered = 0;
  std::uint64_t stamped = 0;           // sequencer work
  std::uint64_t drained_at_view = 0;   // unstamped app msgs delivered at install
  std::uint64_t context_bytes = 0;     // structure bytes shipped in flushes
  std::uint64_t merge_reqs_dropped = 0;
};

class EvsEndpoint : public vsync::Endpoint, private vsync::Delegate {
 public:
  explicit EvsEndpoint(vsync::EndpointConfig config);

  void set_evs_delegate(EvsDelegate* delegate) { evs_delegate_ = delegate; }

  /// Totally-ordered application multicast (queued across view changes).
  void app_multicast(Bytes payload);

  /// Requests the merge of the given sv-sets (Section 6.1 SV-SetMerge).
  /// Asynchronous: the result arrives as a new e-view; invalid requests
  /// (stale ids) are dropped by the sequencer.
  void request_sv_set_merge(std::vector<SvSetId> svsets);

  /// Requests the merge of the given subviews (Section 6.1 SubviewMerge);
  /// they must all belong to one sv-set or the change has no effect.
  void request_subview_merge(std::vector<SubviewId> subviews);

  /// Convenience: collapse the whole view into a single sv-set (if split),
  /// otherwise into a single subview. Applications call this after a
  /// successful reconciliation; once the e-view is degenerate the group is
  /// back to the traditional-view special case.
  void request_merge_all();

  const EView& eview() const { return eview_; }
  const EvsStats& evs_stats() const { return evs_stats_; }

  /// Projects vsync + detector + EVS stats into `registry` under `prefix`
  /// (hides, and calls, the base-class export).
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;

  /// Extends the vsync status with the enriched-view mode ("normal" once
  /// the structure is degenerate, "split" otherwise), ev_seq, the full
  /// subview / sv-set structure and the EVS counters.
  std::string admin_status_json() const override;

  /// Admin-plane control surface (runtime::Node): "join" nudges an
  /// immediate reconfiguration, "leave" announces departure and halts,
  /// "merge-all" collapses the structure, "merge" requests an SV-SetMerge
  /// of the sv-set ids listed in `arg` (the textual ids /status reports).
  bool admin_command(const std::string& name, const std::string& arg,
                     std::string& error) override;

 private:
  struct MergeRequest {
    EvOp::Kind kind;
    std::vector<SvSetId> svsets;
    std::vector<SubviewId> subviews;
  };

  // vsync::Delegate
  void on_view(const gms::View& view, const vsync::InstallInfo& info) override;
  void on_deliver(ProcessId sender, const Bytes& payload) override;
  Bytes flush_context() override;
  void on_block() override;

  bool is_sequencer() const { return view().primary() == id(); }
  /// True while new sends must wait for the next e-view: the endpoint is
  /// frozen for a view change, or on_view is still draining the old view's
  /// unstamped messages (the transport has installed the new view, the
  /// e-view has not).
  bool deferring() const { return blocked() || eview_.view.id != view().id; }
  void dispatch_deliver(ProcessId sender, const Bytes& payload);
  void send_app(Bytes payload);
  void submit_merge(MergeRequest request);
  void handle_fwd(ProcessId sender, Decoder& dec);
  void handle_stamped(Decoder& dec);
  void handle_ev_change(Decoder& dec);
  void handle_merge_req(Decoder& dec);
  void sequence_merge(const MergeRequest& request);
  void deliver_app(ProcessId origin, const Bytes& payload);
  void emit_eview();

  EvsDelegate* evs_delegate_ = nullptr;
  EView eview_;
  std::uint64_t mint_counter_ = 0;  // persistent across views

  // Per-view total-order state. `lseq_` numbers this member's sends from 1
  // in every view. `stamped_upto_` is the highest lseq stamped per origin:
  // the sequencer stamps each origin's Fwds in FIFO order and stops for
  // the rest of the view once blocked, so an origin's stamped lseqs are
  // always a prefix 1..upto and any Fwd or Stamped at or below the mark is
  // a duplicate. `unordered_` holds Fwds still waiting for their stamp.
  using MsgKey = std::pair<ProcessId, std::uint64_t>;
  std::uint64_t lseq_ = 0;
  std::map<MsgKey, Bytes> unordered_;
  std::unordered_map<ProcessId, std::uint64_t> stamped_upto_;

  // Work queued while deferring() (see above), re-issued after the next
  // e-view is delivered.
  std::deque<Bytes> app_queue_;
  std::deque<MergeRequest> merge_queue_;

  EvsStats evs_stats_;
};

}  // namespace evs::core
