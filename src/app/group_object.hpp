// Group-object runtime (Sections 3-6 made executable).
//
// GroupObjectBase turns the paper's methodology into a reusable engine.
// A concrete group object (replicated file, parallel database, lock
// manager, ...) supplies:
//   - a serve predicate  ("can this member set serve all external ops?"),
//   - state plumbing     (snapshot / install / deterministic merge),
//   - its external operations, built on mode() and object_multicast().
//
// The base drives the Figure-1 mode machine, classifies every entry into
// S-mode as transfer / creation / merging, and runs the generic
// reconciliation protocol:
//
//   Enriched classifier (the paper's proposal): classification is local —
//   the serving subviews are read straight off the e-view structure. One
//   representative per subview multicasts an OFFER (version + snapshot);
//   once offers cover the structure, everyone deterministically adopts
//   the right state (transfer source, creation winner by Skeen-style
//   last-to-fail epoch, or an application merge of diverged clusters),
//   then the primary collapses the structure with SV-SetMerge +
//   SubviewMerge and members Reconcile back to N-mode. Members of the
//   single serving subview are never disturbed.
//
//   Flat classifier (the Section-4 baseline): structure is ignored. The
//   process can only narrow the problem to a set of possibilities; it
//   must run a discovery round in which *every* member multicasts its
//   prior view, prior mode, version and snapshot. Costs (messages, bytes,
//   latency) are accounted so CLAIM-CLASSIFY can compare.
//
// Transfer strategies (Section 5's discussion): WholeSnapshot ships the
// state inside the OFFER; SplitSmallLarge ships a small critical part
// synchronously and streams the rest in chunks while the new view is
// already serving — time-to-serve vs time-to-full-state are recorded for
// the CLAIM-XFER bench. Whichever problem the settle faces, a stale
// member adopts one offer the same way (adopt_offer), and the offer's own
// fields pick the path: a deferred offer is Pulled (delta transfer, below),
// a whole state at hand is installed at its cut, and otherwise the small
// part is installed at once and the settle waits for the chunks. Merging
// waits until every cluster's whole state is at hand.
//
// Every applied Object op also advances the object's ordered-op log
// (app/op_log.hpp): a per-object (index, rolling hash) position, the
// durable op records behind config.persist_state and the in-memory ring
// behind config.delta_transfer. Delta rejoin is generic on that log: a
// stale member Pulls with its position as basis and the source answers
// with the op suffix after it.
//
// The cut rule (P6.2: an e-view change is a consistent cut). Every state
// install — an Offer snapshot, a chunked full state, a merge result, a
// delta or a full Pull answer — names the op index it was cut at and how
// many of the current view's ops it already contains. The installer
// keeps the ops it delivered in the view while an install may still come
// and, after installing, re-applies the ones past the cut (state only:
// no client is answered twice). A member that will Pull a delta holds
// its in-view ops unapplied instead, so its state stays exactly the
// basis the delta upgrades.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "app/classify.hpp"
#include "app/history.hpp"
#include "app/mode.hpp"
#include "app/op_log.hpp"
#include "evs/endpoint.hpp"
#include "obs/metrics.hpp"
#include "runtime/svc.hpp"

namespace evs::app {

enum class ClassifierMode : std::uint8_t { Enriched = 0, FlatDiscovery = 1 };
enum class TransferStrategy : std::uint8_t {
  WholeSnapshot = 0,
  SplitSmallLarge = 1,
};

struct GroupObjectConfig {
  vsync::EndpointConfig endpoint;
  ClassifierMode classifier = ClassifierMode::Enriched;
  TransferStrategy transfer = TransferStrategy::WholeSnapshot;
  /// Isis-style comparison point: while any settle is in progress, even
  /// up-to-date members suspend external operations.
  bool block_all_during_settle = false;
  /// Chunk size for SplitSmallLarge.
  std::size_t chunk_bytes = 4096;
  /// Pacing between background chunks (SplitSmallLarge): keeps the bulk
  /// stream from starving foreground traffic on a finite-bandwidth link —
  /// this is what makes "transferred concurrently with application
  /// activity in the new view" (Section 5) actually concurrent.
  SimDuration chunk_interval = 300 * kMicrosecond;
  /// Record the Section-3 formal history (view + object-delivery events);
  /// lets tests and tools re-derive mode sequences via app::mode_trace.
  bool record_history = false;
  /// Retry hint (ms) carried in Unavailable/Conflict responses to
  /// external clients (runtime::Node::svc_request).
  std::uint64_t svc_retry_after_ms = 50;
  /// Persist the object's ordered-op log into the stable store — one
  /// record per applied op, a snapshot when a settle replaces the state
  /// or the op records outgrow the last snapshot (app/op_log.hpp) — and
  /// recover it in on_start: behind a durable store a restarted process
  /// re-enters the group with its pre-crash state and op position
  /// instead of empty. Off by default — the simulator's recovery
  /// scenarios model permanence explicitly; evs_node switches it on when
  /// the config names a store directory.
  bool persist_state = false;
  /// Bounded-delta state transfer (enriched classifier, WholeSnapshot
  /// only): when the settle classifies as a transfer, representatives
  /// defer their snapshots (the offer carries a flag instead of the
  /// bytes) and each stale member Pulls with its op-log position as
  /// basis; the serving representative answers with the op suffix after
  /// it from its in-memory ring, falling back to the full snapshot when
  /// the basis is unknown, its hash disagrees or the suffix would not fit
  /// one datagram. Off by default (changes settle traffic, keeps the
  /// ring); evs_node enables it with persist_state.
  bool delta_transfer = false;
};

struct SettleRecord {
  ViewId view;
  ProblemSet problems = kNoProblem;
  SimTime started = 0;
  SimTime serve_ready = 0;  // state good enough to serve
  SimTime fully_done = 0;   // all state applied (chunks included)
};

struct ObjectStats {
  std::uint64_t settles_started = 0;
  std::uint64_t settles_completed = 0;
  std::uint64_t transfers = 0;
  std::uint64_t creations = 0;
  std::uint64_t merges = 0;
  std::uint64_t discovery_rounds = 0;
  std::uint64_t discovery_messages = 0;
  std::uint64_t offer_messages = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t chunk_messages = 0;
  std::uint64_t ambiguous_classifications = 0;  // flat: |possibility set| > 1
  /// Malformed snapshot/delta payloads rejected by install/merge — the
  /// counted alternative to decoding garbage into protocol state.
  std::uint64_t snapshot_decode_errors = 0;
  // Bounded-delta transfer accounting (config.delta_transfer).
  std::uint64_t deferred_offers = 0;       // offers sent without snapshots
  std::uint64_t delta_pulls = 0;           // Pull requests this member sent
  std::uint64_t delta_serves = 0;          // Pulls answered as the source
  std::uint64_t delta_installs = 0;        // deltas applied over local state
  std::uint64_t delta_bytes_sent = 0;      // payload bytes of served answers
  std::uint64_t delta_bytes_received = 0;  // payload bytes of applied answers
  std::uint64_t delta_full_fallbacks = 0;  // answers that shipped full state
  // Cut rule and recovery.
  std::uint64_t held_ops = 0;         // in-view ops held for a delta install
  std::uint64_t cut_replays = 0;      // ops re-applied past an install's cut
  std::uint64_t recovered_ops = 0;    // ops replayed from the store at boot
  ProblemSet last_problems = kNoProblem;
};

class GroupObjectBase : public core::EvsEndpoint, private core::EvsDelegate {
 public:
  explicit GroupObjectBase(GroupObjectConfig config);

  Mode mode() const { return machine_ ? machine_->mode() : Mode::Settling; }
  const ModeMachine* mode_machine() const {
    return machine_ ? &*machine_ : nullptr;
  }

  /// External operations permitted right now? NORMAL always is; REDUCED
  /// callers must additionally consult their own reduced-op rules.
  bool serving_normal() const;

  const ObjectStats& object_stats() const { return object_stats_; }
  const std::vector<SettleRecord>& settle_log() const { return settle_log_; }
  const Classification& last_classification() const { return classification_; }
  bool state_current() const { return state_current_; }
  /// The recorded formal history (empty unless config.record_history).
  const History& history() const { return history_; }
  /// The ordered-op log: position (index, hash), ring and record stats.
  const OpLog& op_log() const { return op_log_; }

  /// Projects vsync + EVS + object stats (and mode occupancy/transition
  /// counts) into `registry` under `prefix` (hides, and calls, the
  /// EvsEndpoint export).
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;

  void on_start() override;

  /// External-client entry point (runtime::Node). Applies the epoch fence
  /// — a request whose view_epoch is neither 0 (wildcard) nor the
  /// installed view's epoch gets InvalidEpoch{current} — then routes to
  /// the object's svc_dispatch.
  void svc_request(runtime::SvcRequest req,
                   runtime::SvcRespondFn respond) override;

  /// Installed-view epoch, the value clients fence their requests with.
  std::uint64_t view_epoch() const { return eview().view.id.epoch; }

  /// Observes every enriched-view event after the object has processed it
  /// (the object itself occupies the EvsDelegate slot, so a host that
  /// wants to print view lines registers here instead).
  void set_view_observer(std::function<void(const core::EView&)> fn) {
    view_observer_ = std::move(fn);
  }

  /// Svc-originated multicasts answered but not yet delivered back; the
  /// front door's per-node queue depth.
  std::size_t svc_pending() const { return pending_svc_.size(); }

  /// Per-phase latency attribution of svc-originated operations:
  /// order_us  — svc_multicast send to ordered self-delivery (the total-
  ///             order round trip the external write paid);
  /// fence_us  — svc_multicast send to the e-view change that fenced the
  ///             response instead (time the client waited to learn the
  ///             epoch moved);
  /// apply_us  — on_object_deliver duration, every ordered delivery.
  const obs::Histogram& order_latency() const { return order_us_; }
  const obs::Histogram& fence_latency() const { return fence_us_; }
  const obs::Histogram& apply_latency() const { return apply_us_; }

 protected:
  // ----- subclass interface ------------------------------------------
  virtual bool can_serve(const std::vector<ProcessId>& members) const = 0;
  virtual Bytes snapshot_state() const = 0;
  virtual void install_state(const Bytes& snapshot) = 0;
  /// Deterministic merge of diverged cluster states (most-capable cluster
  /// first); every member applies the same inputs in the same order.
  virtual Bytes merge_cluster_states(const std::vector<Bytes>& snapshots) = 0;
  virtual std::uint64_t state_version() const = 0;
  /// Small critical part for SplitSmallLarge (default: whole snapshot).
  virtual Bytes snapshot_small() const { return snapshot_state(); }
  virtual void install_small(const Bytes& snapshot) { install_state(snapshot); }
  /// Object-level application traffic (external-operation messages).
  virtual void on_object_deliver(ProcessId sender, const Bytes& payload) = 0;
  virtual void on_mode_change(Mode previous, Mode current) {
    (void)previous;
    (void)current;
  }
  /// Called once per installed view, after mode evaluation — the hook for
  /// deterministic per-view state rules (e.g. dropping a lock whose
  /// holder left the view).
  virtual void on_new_view(const core::EView& eview) { (void)eview; }

  /// Per-object operation dispatch for external-client requests, called
  /// after the base's epoch fence admitted the request. The default
  /// supports nothing; objects override with reads answered immediately
  /// and writes funnelled through svc_multicast.
  virtual void svc_dispatch(runtime::SvcRequest req,
                            runtime::SvcRespondFn respond);

  /// Multicasts an external-operation message (totally ordered).
  void object_multicast(const Bytes& payload);

  /// Multicasts an external-operation message on behalf of an external
  /// client: when the multicast is delivered back at this replica (i.e.
  /// the operation took its place in the total order and was applied),
  /// `finish` builds the typed response and `respond` carries it out. If
  /// an e-view change installs first, the client is answered
  /// InvalidEpoch{new_epoch} instead — the epoch-fencing rule — while the
  /// operation itself still applies in the next view (view synchrony
  /// delivers queued multicasts there; only the *response* is fenced).
  void svc_multicast(const Bytes& payload, runtime::SvcRespondFn respond,
                     std::function<runtime::SvcResponse()> finish);

  /// Unavailable{config.svc_retry_after_ms}: the object cannot serve the
  /// operation right now (settling, minority partition, overload).
  runtime::SvcResponse svc_unavailable() const {
    return runtime::SvcResponse::unavailable(object_config_.svc_retry_after_ms);
  }

 private:
  enum class FrameKind : std::uint8_t {
    Object = 1,
    Offer = 2,
    Chunk = 3,
    Pull = 4,   // stale member asks the serving source for a delta
    Delta = 5,  // source's targeted answer (bounded delta or full state)
  };

  struct Offer {
    ViewId view;
    SubviewId subview;  // enriched: real id; flat: pseudo-id from sender
    ViewId prior_view;
    Mode prior_mode = Mode::Settling;
    bool serving = false;
    std::uint64_t version = 0;
    std::uint64_t recovered_epoch = 0;
    std::uint64_t chunk_count = 0;  // >0: snapshot streamed separately
    /// Delta transfer: the snapshot was withheld — receivers that need it
    /// Pull against their own basis instead of reading it off the offer.
    bool deferred = false;
    /// Op-log position of the snapshot. An offer is cut at its view's
    /// install, before any op of the view.
    std::uint64_t op_index = 0;
    std::uint64_t op_hash = 0;
    Bytes snapshot;
  };

  // EvsDelegate
  void on_eview(const core::EView& eview) override;
  void on_app_deliver(ProcessId sender, const Bytes& payload) override;
  void dispatch_frame(ProcessId sender, const Bytes& payload);

  /// Responds to pending svc ops whose multicast came back at `seq`, and
  /// defensively fails any skipped ones.
  void resolve_pending_svc(std::uint64_t seq);
  /// The epoch fence: answers every unanswered pending svc op
  /// InvalidEpoch{new epoch} at a view change (entries stay queued for
  /// seq alignment — the multicasts themselves deliver in the new view).
  void fence_pending_svc(std::uint64_t new_epoch);

  void evaluate_mode(const core::EView& eview, bool view_changed);
  void start_settle(const core::EView& eview);
  void send_offer_if_rep(const core::EView& eview);
  void handle_offer(ProcessId sender, Decoder& dec);
  void handle_chunk(ProcessId sender, Decoder& dec);
  void handle_pull(ProcessId sender, Decoder& dec);
  void handle_delta(ProcessId sender, Decoder& dec);
  /// Multicasts a Pull against this member's current basis (want_full
  /// forces the source to answer with the whole snapshot).
  void send_pull(bool want_full);
  /// install_state with the malformed-input contract: a DecodeError is
  /// counted (snapshot_decode_errors) and reported as failure instead of
  /// propagating — the member stays settling with its prior state.
  bool checked_install(const Bytes& snapshot);
  /// The cut rule: installs `snapshot` (op-log position index/hash, cut
  /// after `cut_ops` ops of this view), persists it as the new snapshot
  /// and re-applies the view's ops past the cut. False, with the state
  /// untouched, when those ops are not all at hand or the snapshot does
  /// not decode.
  bool install_at_cut(const Bytes& snapshot, std::uint64_t index,
                      std::uint64_t hash, std::uint64_t cut_ops);
  /// Re-applies view_ops_[cut_ops..] and ends holding.
  void replay_after_cut(std::uint64_t cut_ops);
  /// Applies one ordered op and logs it.
  void apply_op(const LoggedOp& op);
  /// Advances the op log past an applied op (persisting its record, and a
  /// snapshot when one is due).
  void log_op(const LoggedOp& op);
  /// Boot: installs the stored snapshot and replays the op chain after it.
  void recover_op_log();
  /// While true, delivered ops are kept in view_ops_ for a later install.
  bool install_may_come() const;
  /// Whether view_ops_ holds every op past `cut_ops` (else no install at
  /// that cut can complete in this view).
  bool view_ops_cover(std::uint64_t cut_ops) const;
  void maybe_complete_settle();
  /// The Section-4 switch: picks the offer each stale member adopts
  /// (transfer source, creation winner) or merges every cluster's state.
  void adopt_states();
  /// Installs `sender`'s offer: Pulls when it was deferred, installs it at
  /// its cut when its whole state is at hand, else installs the small part
  /// and waits for the chunks.
  void adopt_offer(ProcessId sender);
  /// The whole state `sender` offered — its snapshot, or its chunk_count
  /// chunks joined once all have arrived; nullopt while chunks are missing
  /// or when the offer was deferred.
  std::optional<Bytes> offered_state(ProcessId sender) const;
  /// Finishes a chunk wait once the awaited offer's state is whole.
  void maybe_finish_chunks();
  /// The state may serve from now (stamps serve_ready, and fully_done too
  /// when `complete`).
  void state_ready(bool complete);
  /// The settle's state is complete: ends the wait, traces FullyDone and
  /// logs the settle.
  void finish_settle();
  /// This settle moves state by bounded delta: a transfer from the single
  /// serving subview under config.delta_transfer (enriched classifier,
  /// WholeSnapshot). Representatives then defer their offers and stale
  /// members hold their in-view ops for the Pull.
  bool delta_settle() const;
  void trace_phase(obs::ReconcilePhase phase, std::uint64_t detail = 0);
  void maybe_request_merges();
  void try_reconcile();
  bool my_subview_serves() const;
  std::size_t serving_subview_count() const;

  GroupObjectConfig object_config_;
  History history_;
  std::optional<ModeMachine> machine_;
  Classification classification_;
  bool classification_ready_ = false;

  bool state_current_ = false;
  ViewId prior_view_;        // view before the current one
  Mode prior_mode_ = Mode::Settling;
  std::uint64_t recovered_epoch_ = 0;  // from stable store at startup

  // Per-view settle state.
  bool settling_ = false;
  bool adopted_ = false;
  std::map<ProcessId, Offer> offers_;
  /// Chunk parts by sender, then by index.
  std::map<ProcessId, std::map<std::uint64_t, Bytes>> chunks_;
  /// The source whose answer the adopted settle still waits for: its
  /// chunks, or (when its offer was deferred) its Delta.
  std::optional<ProcessId> awaiting_from_;
  /// One full-snapshot retry per settle when the served delta does not
  /// lead to the source's cut (a malformed or mismatched answer).
  bool delta_retry_full_ = false;
  /// The ordered-op log (position, durable records, delta ring).
  OpLog op_log_;
  /// Object ops delivered in the current view, counted always and kept
  /// while install_may_come(): view_ops_[i] is the view's i-th op.
  std::uint64_t view_ops_delivered_ = 0;
  std::vector<LoggedOp> view_ops_;
  std::size_t view_ops_bytes_ = 0;
  /// This member will Pull a delta in this view: its delivered ops wait
  /// in view_ops_ unapplied, so its state stays the Pull's basis.
  bool holding_ = false;
  std::uint64_t last_merge_request_ev_ = UINT64_MAX;
  SettleRecord current_settle_;

  ObjectStats object_stats_;
  std::vector<SettleRecord> settle_log_;

  // ----- external-client (svc) plumbing ------------------------------
  /// Monotonic sequence stamped into every Object frame this member
  /// sends; self-deliveries echo it back so svc completions align even
  /// across view changes.
  std::uint64_t object_send_seq_ = 0;
  /// Trace context of the svc request currently dispatching (0 outside a
  /// traced dispatch): stamped into the Object frame and pushed into the
  /// transport envelope by object_multicast, so the propagated context
  /// survives both the total order and the wire.
  std::uint64_t active_trace_ = 0;
  struct PendingSvcOp {
    std::uint64_t seq = 0;
    /// Trace context the request carried (0 = untraced).
    std::uint64_t trace = 0;
    /// When the multicast went out — the origin of order_us / fence_us.
    SimTime sent = 0;
    /// Nulled once answered (e.g. fenced at a view change); the entry
    /// stays queued until its multicast delivers, keeping seq alignment.
    runtime::SvcRespondFn respond;
    std::function<runtime::SvcResponse()> finish;
  };
  std::deque<PendingSvcOp> pending_svc_;
  obs::Histogram order_us_;
  obs::Histogram fence_us_;
  obs::Histogram apply_us_;
  std::function<void(const core::EView&)> view_observer_;
};

}  // namespace evs::app
