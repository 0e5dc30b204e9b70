#include "app/group_object.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/check.hpp"
#include "common/log.hpp"

namespace evs::app {

namespace {

constexpr const char* kEpochKey = "evs.last_epoch";
/// Budget of a delta answer's op suffix, and so of the ring that serves
/// it: one datagram (net::kMaxPayload, 65 KB) less the frame envelopes.
/// A longer suffix ships as the full snapshot instead.
constexpr std::size_t kDeltaMaxBytes = 60u << 10;
/// Cap on the op bodies a member keeps for the cut rule in one view. A
/// settle still open after this much traffic (say an Offer larger than a
/// datagram that never arrives, ROADMAP item 1) drops them and completes
/// no install in the view, instead of growing without bound.
constexpr std::size_t kMaxViewOpBytes = 16u << 20;

/// Op-log position of a merge result: one past the furthest input, hashed
/// over every input's position in merge order, so all members that merge
/// the same offers agree on it.
std::pair<std::uint64_t, std::uint64_t> merged_position(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& inputs) {
  std::uint64_t index = 0;
  Encoder enc;
  for (const auto& [i, h] : inputs) {
    index = std::max(index, i);
    enc.put_varint(i);
    enc.put_u64(h);
  }
  return {index + 1, roll_op_hash(0, LoggedOp{{}, 0, std::move(enc).take()})};
}

}  // namespace

GroupObjectBase::GroupObjectBase(GroupObjectConfig config)
    : core::EvsEndpoint(config.endpoint),
      object_config_(std::move(config)),
      op_log_(OpLogConfig{object_config_.delta_transfer ? kDeltaMaxBytes : 0}) {
  set_evs_delegate(this);
}

void GroupObjectBase::on_start() {
  // Skeen-style recovery hint: the epoch of the last view this *site*
  // participated in, surviving crashes in stable storage. Used to pick
  // the freshest state during a creation (Section 4, reference [11]).
  if (const auto bytes = store().get(kEpochKey)) {
    try {
      Decoder dec(*bytes);
      recovered_epoch_ = dec.get_u64();
    } catch (const DecodeError&) {
      recovered_epoch_ = 0;
    }
  }
  // Recover the persisted op log (durable store only). The state is
  // installed but NOT current: it is the *basis* the settle protocol
  // upgrades — via an op-suffix delta when the source still holds the
  // ops after it — before this member may serve again.
  if (object_config_.persist_state) recover_op_log();
  machine_.emplace(now());
  core::EvsEndpoint::on_start();  // installs the first (singleton) view
}

bool GroupObjectBase::serving_normal() const {
  if (mode() != Mode::Normal) return false;
  // Isis-style comparison: a settle anywhere in the view suspends even
  // up-to-date members.
  if (object_config_.block_all_during_settle && settling_ && !adopted_)
    return false;
  return true;
}

void GroupObjectBase::object_multicast(const Bytes& payload) {
  // Flag-day frame change: every Object frame carries its trace context
  // (0 = untraced) so the propagated context survives the total order and
  // flush unions — the ordered delivery, not the datagram, is the unit a
  // request's causality follows.
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(FrameKind::Object));
  enc.put_varint(++object_send_seq_);
  enc.put_varint(active_trace_);
  enc.put_bytes(payload);
  // Stamp the wire envelope too while the multicast (and any synchronous
  // self-delivery it triggers) runs, then clear: datagrams this operation
  // provokes carry the context, unrelated later traffic does not.
  if (active_trace_ != 0 && env().transport != nullptr)
    env().transport->set_trace_context(active_trace_);
  app_multicast(std::move(enc).take());
  if (active_trace_ != 0 && env().transport != nullptr)
    env().transport->set_trace_context(0);
}

void GroupObjectBase::svc_multicast(
    const Bytes& payload, runtime::SvcRespondFn respond,
    std::function<runtime::SvcResponse()> finish) {
  // Register the pending op *before* multicasting: when this member is the
  // one ordering the message, self-delivery happens synchronously inside
  // app_multicast, and resolve_pending_svc must find the entry there.
  pending_svc_.push_back(PendingSvcOp{object_send_seq_ + 1, active_trace_,
                                      now(), std::move(respond),
                                      std::move(finish)});
  if (active_trace_ != 0) {
    if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
      bus->record({now(), id(), obs::EventKind::RequestOrdered,
                   eview().view.id, {}, active_trace_, object_send_seq_ + 1});
    }
  }
  object_multicast(payload);
}

void GroupObjectBase::resolve_pending_svc(std::uint64_t seq) {
  EVS_DEBUG(to_string(id()) << " resolve_pending_svc seq=" << seq
            << " front=" << (pending_svc_.empty()
                                 ? std::string("none")
                                 : std::to_string(pending_svc_.front().seq))
            << " pending=" << pending_svc_.size());
  // Ordered self-delivery makes skipped entries impossible in a healthy
  // run; answer them Unavailable rather than leave a client hanging if a
  // delivery was ever lost underneath us.
  while (!pending_svc_.empty() && pending_svc_.front().seq < seq) {
    PendingSvcOp entry = std::move(pending_svc_.front());
    pending_svc_.pop_front();
    if (entry.respond) entry.respond(svc_unavailable());
  }
  if (pending_svc_.empty() || pending_svc_.front().seq != seq) return;
  PendingSvcOp entry = std::move(pending_svc_.front());
  pending_svc_.pop_front();
  order_us_.record(static_cast<double>(now() - entry.sent));
  // finish() runs after on_object_deliver applied the operation, so it
  // reads post-apply state (lock granted? value stored?).
  if (entry.respond) entry.respond(entry.finish());
}

void GroupObjectBase::fence_pending_svc(std::uint64_t new_epoch) {
  for (PendingSvcOp& entry : pending_svc_) {
    if (!entry.respond) continue;
    fence_us_.record(static_cast<double>(now() - entry.sent));
    if (entry.trace != 0) {
      if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
        bus->record({now(), id(), obs::EventKind::RequestFenced,
                     eview().view.id, {}, entry.trace, new_epoch});
      }
    }
    entry.respond(runtime::SvcResponse::invalid_epoch(new_epoch));
    entry.respond = nullptr;
  }
}

void GroupObjectBase::svc_request(runtime::SvcRequest req,
                                  runtime::SvcRespondFn respond) {
  // The epoch fence on admission: a client that last saw a different view
  // must re-learn the epoch before its operations are accepted (epoch 0
  // is the bootstrap wildcard).
  if (req.view_epoch != 0 && req.view_epoch != view_epoch()) {
    respond(runtime::SvcResponse::invalid_epoch(view_epoch()));
    return;
  }
  // The dispatch runs under the request's trace context (0 when the
  // request was unsampled): any svc_multicast it performs propagates it.
  active_trace_ = runtime::effective_trace(req);
  svc_dispatch(std::move(req), std::move(respond));
  active_trace_ = 0;
}

void GroupObjectBase::svc_dispatch(runtime::SvcRequest,
                                   runtime::SvcRespondFn respond) {
  respond(runtime::SvcResponse::unsupported());
}

// ----------------------------------------------------------- delegates ---

void GroupObjectBase::on_eview(const core::EView& eview) {
  const bool view_changed = eview.ev_seq == 0;
  if (view_changed) {
    // Epoch fence: in-flight client operations were accepted under the
    // previous view; answer them InvalidEpoch{new epoch} now rather than
    // complete them as if nothing happened (flush already delivered
    // everything that legitimately belongs to the old view).
    fence_pending_svc(eview.view.id.epoch);
    if (object_config_.record_history) history_.record_view(eview.view);
    prior_view_ = current_settle_.view;  // the previous view's id
    current_settle_.view = eview.view.id;
    // Persist the epoch for post-crash recovery ranking.
    Encoder enc;
    enc.put_u64(eview.view.id.epoch);
    store().put(kEpochKey, std::move(enc).take());
    // Reset per-view settle state.
    settling_ = false;
    adopted_ = false;
    classification_ready_ = false;
    classification_ = Classification{};
    offers_.clear();
    chunks_.clear();
    awaiting_from_.reset();
    delta_retry_full_ = false;
    last_merge_request_ev_ = UINT64_MAX;
    // Held ops of the old view are dropped with it: a holding member never
    // applied them and stays not current (start_settle cleared the flag),
    // so the next settle brings it up to date again.
    view_ops_delivered_ = 0;
    view_ops_.clear();
    view_ops_bytes_ = 0;
    holding_ = false;
  }
  EVS_DEBUG(to_string(id()) << " on_eview " << gms::to_string(eview.view)
            << " ev_seq=" << eview.ev_seq << " mode=" << to_string(mode())
            << " struct=" << eview.structure.str());
  evaluate_mode(eview, view_changed);
  if (view_changed) {
    on_new_view(eview);
    // Protocol participation is group-wide: even members staying in
    // N-mode must answer offers (the serving representative *is* an
    // N-mode process).
    const bool group_needs_settle =
        object_config_.classifier == ClassifierMode::FlatDiscovery
            ? eview.view.size() > 0
            : (eview.structure.subviews().size() > 1 || !state_current_);
    if (group_needs_settle) start_settle(eview);
  }
  maybe_complete_settle();
  maybe_finish_chunks();
  maybe_request_merges();
  try_reconcile();
  if (view_observer_) view_observer_(eview);
}

void GroupObjectBase::on_app_deliver(ProcessId sender, const Bytes& payload) {
  try {
    dispatch_frame(sender, payload);
  } catch (const DecodeError& err) {
    std::string head;
    for (std::size_t i = 0; i < payload.size() && i < 24; ++i)
      head += std::to_string(payload[i]) + " ";
    throw DecodeError(std::string("object-frame: ") + err.what() +
                      " size=" + std::to_string(payload.size()) + " head=" + head);
  }
}

void GroupObjectBase::dispatch_frame(ProcessId sender, const Bytes& payload) {
  Decoder dec(payload);
  switch (static_cast<FrameKind>(dec.get_u8())) {
    case FrameKind::Object: {
      LoggedOp op;
      op.sender = sender;
      op.op_seq = dec.get_varint();
      const std::uint64_t op_trace = dec.get_varint();
      op.body = dec.get_bytes();
      if (object_config_.record_history)
        history_.record_delivery(sender, op.body);
      auto* bus = trace();
      const bool traced =
          op_trace != 0 && bus != nullptr && bus->enabled();
      if (traced) {
        bus->record({now(), id(), obs::EventKind::RequestDelivered,
                     eview().view.id, sender, op_trace, op.op_seq});
      }
      ++view_ops_delivered_;
      if (!install_may_come() || view_ops_bytes_ > kMaxViewOpBytes) {
        // The settle is over (no cut will need them) or too long to keep.
        view_ops_.clear();
      } else {
        view_ops_bytes_ += op.body.size();
        view_ops_.push_back(op);
      }
      if (holding_) {
        ++object_stats_.held_ops;
      } else {
        const SimTime apply_start = now();
        on_object_deliver(sender, op.body);
        apply_us_.record(static_cast<double>(now() - apply_start));
        if (traced) {
          bus->record({now(), id(), obs::EventKind::RequestApplied,
                       eview().view.id, sender, op_trace, op.op_seq});
        }
      }
      // Our own operation came back through the total order: complete the
      // external-client request it carried, if any (and if a view change
      // didn't fence it first). The reply goes out before the op is
      // logged — the ack point is the ordered self-delivery, and the log
      // is write-behind like the rest of the store.
      if (sender == id()) resolve_pending_svc(op.op_seq);
      if (!holding_) log_op(op);
      break;
    }
    case FrameKind::Offer:
      handle_offer(sender, dec);
      break;
    case FrameKind::Chunk:
      handle_chunk(sender, dec);
      break;
    case FrameKind::Pull:
      handle_pull(sender, dec);
      break;
    case FrameKind::Delta:
      handle_delta(sender, dec);
      break;
    default:
      throw DecodeError("GroupObject: unknown frame");
  }
}

// ----------------------------------------------------------------- mode ---

bool GroupObjectBase::my_subview_serves() const {
  const auto sv = eview().structure.subview_of(id());
  if (!sv) return false;
  const core::Subview* subview = eview().structure.find_subview(*sv);
  return subview != nullptr && can_serve(subview->members);
}

std::size_t GroupObjectBase::serving_subview_count() const {
  std::size_t count = 0;
  for (const core::Subview& sv : eview().structure.subviews()) {
    if (can_serve(sv.members)) ++count;
  }
  return count;
}

void GroupObjectBase::evaluate_mode(const core::EView& eview, bool view_changed) {
  if (!view_changed) return;  // structure growth is handled by try_reconcile
  const Mode before = machine_->mode();
  prior_mode_ = before;
  ModeInput input;
  input.can_serve_all = can_serve(eview.view.members);
  if (object_config_.classifier == ClassifierMode::Enriched) {
    input.needs_settling = !(state_current_ && serving_subview_count() == 1 &&
                             my_subview_serves());
  } else {
    // Flat views carry no structure: any view change may have invalidated
    // the shared state, so the process must always settle.
    input.needs_settling = true;
  }
  const std::optional<Transition> taken =
      machine_->on_view(input, now());
  if (taken.has_value()) {
    if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
      // Self-loops (S->S Reconfigure) are reported too, matching the
      // machine's own convention.
      bus->record({now(), id(), obs::EventKind::ModeTransition, eview.view.id,
                   {}, static_cast<std::uint64_t>(*taken),
                   static_cast<std::uint64_t>(machine_->mode()),
                   static_cast<std::uint64_t>(before)});
    }
  }
  if (machine_->mode() != before) on_mode_change(before, machine_->mode());
}

// --------------------------------------------------------------- settle ---

void GroupObjectBase::start_settle(const core::EView& eview) {
  settling_ = true;
  adopted_ = false;
  ++object_stats_.settles_started;
  trace_phase(obs::ReconcilePhase::SettleStarted);
  current_settle_.problems = kNoProblem;
  current_settle_.started = now();
  current_settle_.serve_ready = 0;
  current_settle_.fully_done = 0;

  if (object_config_.classifier == ClassifierMode::Enriched) {
    classification_ =
        classify_enriched(eview, [this](const std::vector<ProcessId>& m) {
          return can_serve(m);
        });
    classification_ready_ = true;
  } else {
    const ProblemSet possible = classify_flat(
        prior_mode_, eview.view,
        [this](const std::vector<ProcessId>& m) { return can_serve(m); });
    if (std::popcount(possible) > 1) ++object_stats_.ambiguous_classifications;
    ++object_stats_.discovery_rounds;
    classification_ready_ = false;
  }
  // A member outside the single serving subview will Pull a delta over
  // its current state (or install a full snapshot): hold this view's ops
  // until then, and stop counting as current — if the view ends first,
  // the held ops are gone and the next settle must bring it up to date.
  if (delta_settle() && eview.structure.subview_of(id()) !=
                            classification_.serving_subviews.front()) {
    holding_ = true;
    state_current_ = false;
  }
  send_offer_if_rep(eview);
}

void GroupObjectBase::send_offer_if_rep(const core::EView& eview) {
  Offer offer;
  offer.view = eview.view.id;
  offer.prior_view = prior_view_;
  offer.prior_mode = prior_mode_;
  offer.version = state_version();
  offer.recovered_epoch = recovered_epoch_;
  offer.op_index = op_log_.index();
  offer.op_hash = op_log_.hash();

  if (object_config_.classifier == ClassifierMode::Enriched) {
    const auto sv = eview.structure.subview_of(id());
    if (!sv) return;
    const core::Subview* subview = eview.structure.find_subview(*sv);
    EVS_CHECK(subview != nullptr);
    if (subview->members.front() != id()) return;  // not the representative
    offer.subview = *sv;
    offer.serving = can_serve(subview->members);
  } else {
    // Flat: every member reports; its "pseudo-subview" is derived from its
    // prior view so discovery can group clusters.
    ++object_stats_.discovery_messages;
    offer.subview = SubviewId{prior_view_.coordinator, prior_view_.epoch};
    offer.serving = prior_mode_ == Mode::Normal;
  }

  // Delta transfer: representatives withhold their snapshots. Stale
  // members Pull against their own recovered basis instead of taking the
  // full state off the offer — and the stale side's snapshot was dead
  // weight anyway. The serving subview's representative only defers when
  // its state is current, because only then will it answer the Pulls.
  offer.deferred =
      delta_settle() &&
      (classification_.serving_subviews.front() != offer.subview ||
       state_current_);

  Bytes full;
  bool split = false;
  if (offer.deferred) {
    ++object_stats_.deferred_offers;
  } else {
    full = snapshot_state();
    split = object_config_.transfer == TransferStrategy::SplitSmallLarge &&
            full.size() > object_config_.chunk_bytes;
    if (split) {
      offer.snapshot = snapshot_small();
      offer.chunk_count =
          (full.size() + object_config_.chunk_bytes - 1) / object_config_.chunk_bytes;
    } else {
      offer.snapshot = full;
    }
  }
  object_stats_.snapshot_bytes += offer.snapshot.size();
  ++object_stats_.offer_messages;

  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(FrameKind::Offer));
  enc.put_view_id(offer.view);
  enc.put_subview_id(offer.subview);
  enc.put_view_id(offer.prior_view);
  enc.put_u8(static_cast<std::uint8_t>(offer.prior_mode));
  enc.put_bool(offer.serving);
  enc.put_varint(offer.version);
  enc.put_varint(offer.recovered_epoch);
  enc.put_varint(offer.chunk_count);
  enc.put_bool(offer.deferred);
  enc.put_varint(offer.op_index);
  enc.put_u64(offer.op_hash);
  enc.put_bytes(offer.snapshot);
  app_multicast(std::move(enc).take());

  if (split) {
    // Stream the full state in paced chunks, concurrently with new-view
    // traffic (foreground messages interleave between chunks).
    const ViewId chunk_view = offer.view;
    const std::uint64_t count = offer.chunk_count;
    const auto shared_full = std::make_shared<const Bytes>(full);
    for (std::uint64_t i = 0; i < count; ++i) {
      set_timer(object_config_.chunk_interval * (i + 1),
                [this, chunk_view, count, i, shared_full]() {
                  const Bytes& full = *shared_full;
                  if (this->eview().view.id != chunk_view) return;  // superseded
                  const std::size_t begin =
                      static_cast<std::size_t>(i) * object_config_.chunk_bytes;
                  const std::size_t end =
                      std::min(full.size(), begin + object_config_.chunk_bytes);
                  Encoder chunk;
                  chunk.put_u8(static_cast<std::uint8_t>(FrameKind::Chunk));
                  chunk.put_view_id(chunk_view);
                  chunk.put_varint(i);
                  chunk.put_varint(count);
                  chunk.put_bytes(
                      Bytes(full.begin() + static_cast<std::ptrdiff_t>(begin),
                            full.begin() + static_cast<std::ptrdiff_t>(end)));
                  ++object_stats_.chunk_messages;
                  object_stats_.snapshot_bytes += end - begin;
                  EVS_DEBUG(to_string(id()) << " sends chunk " << i << "/" << count);
                  app_multicast(std::move(chunk).take());
                });
    }
  }
}

void GroupObjectBase::handle_offer(ProcessId sender, Decoder& dec) {
  Offer offer;
  offer.view = dec.get_view_id();
  offer.subview = dec.get_subview_id();
  offer.prior_view = dec.get_view_id();
  const std::uint8_t mode_byte = dec.get_u8();
  if (mode_byte > 2) throw DecodeError("bad mode in offer");
  offer.prior_mode = static_cast<Mode>(mode_byte);
  offer.serving = dec.get_bool();
  offer.version = dec.get_varint();
  offer.recovered_epoch = dec.get_varint();
  offer.chunk_count = dec.get_varint();
  offer.deferred = dec.get_bool();
  offer.op_index = dec.get_varint();
  offer.op_hash = dec.get_u64();
  offer.snapshot = dec.get_bytes();
  if (offer.view != eview().view.id) return;  // stale
  offers_[sender] = std::move(offer);
  maybe_complete_settle();
}

void GroupObjectBase::handle_chunk(ProcessId sender, Decoder& dec) {
  const ViewId view = dec.get_view_id();
  const std::uint64_t index = dec.get_varint();
  const std::uint64_t total = dec.get_varint();
  Bytes part = dec.get_bytes();
  if (view != eview().view.id) return;
  std::map<std::uint64_t, Bytes>& parts = chunks_[sender];
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::StateTransferChunk, view, sender,
                 index, part.size(), total});
  }
  parts.emplace(index, std::move(part));
  EVS_DEBUG(to_string(id()) << " chunk " << index << "/" << total << " from "
            << to_string(sender) << " have=" << parts.size()
            << " awaiting=" << (awaiting_from_ ? to_string(*awaiting_from_) : "none"));
  maybe_complete_settle();
  maybe_finish_chunks();
}

void GroupObjectBase::maybe_finish_chunks() {
  if (!adopted_ || !awaiting_from_) return;
  const std::optional<Bytes> full = offered_state(*awaiting_from_);
  if (!full) return;  // chunks still in flight, or a Delta answers the wait
  const Offer& offer = offers_.at(*awaiting_from_);
  awaiting_from_.reset();
  if (!install_at_cut(*full, offer.op_index, offer.op_hash, 0)) {
    // The assembled state was garbage: surrender the small-part serve
    // claim too — a member must not keep serving on state it cannot
    // complete. The next view change restarts the settle.
    state_current_ = false;
    return;
  }
  current_settle_.fully_done = now();
  finish_settle();
  try_reconcile();
}

std::optional<Bytes> GroupObjectBase::offered_state(ProcessId sender) const {
  const Offer& offer = offers_.at(sender);
  if (offer.deferred) return std::nullopt;
  if (offer.chunk_count == 0) return offer.snapshot;
  const auto it = chunks_.find(sender);
  if (it == chunks_.end() || it->second.size() != offer.chunk_count)
    return std::nullopt;
  Bytes full;
  for (const auto& [index, part] : it->second)
    full.insert(full.end(), part.begin(), part.end());
  return full;
}

// ------------------------------------------------------- delta transfer ---

void GroupObjectBase::send_pull(bool want_full) {
  EVS_CHECK(awaiting_from_.has_value());
  ++object_stats_.delta_pulls;
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(FrameKind::Pull));
  enc.put_view_id(eview().view.id);
  enc.put_process(*awaiting_from_);
  enc.put_bool(want_full);
  enc.put_varint(op_log_.index());
  enc.put_u64(op_log_.hash());
  EVS_DEBUG(to_string(id()) << " pulls " << (want_full ? "full" : "delta")
            << " from " << to_string(*awaiting_from_));
  app_multicast(std::move(enc).take());
}

void GroupObjectBase::handle_pull(ProcessId sender, Decoder& dec) {
  const ViewId view = dec.get_view_id();
  const ProcessId target = dec.get_process();
  const bool want_full = dec.get_bool();
  const std::uint64_t basis_index = dec.get_varint();
  const std::uint64_t basis_hash = dec.get_u64();
  if (view != eview().view.id) return;  // stale
  if (target != id()) return;           // someone else's source
  // Only a member with current state may answer; a view change rescues a
  // Pull that raced past the source (the settle restarts with new offers).
  if (!state_current_) return;
  // The answer is cut here, at the Pull's place in the total order: it
  // holds the view's first view_ops_delivered_ ops, and the puller
  // re-applies the ones it delivered after them.
  std::optional<Bytes> payload;
  if (!want_full) {
    if (const auto ops = op_log_.suffix_after(basis_index, basis_hash,
                                              kDeltaMaxBytes)) {
      payload = encode_ops(*ops);
    }
  }
  const bool full = !payload.has_value();
  if (full) {
    payload = snapshot_state();
    ++object_stats_.delta_full_fallbacks;
  }
  ++object_stats_.delta_serves;
  object_stats_.delta_bytes_sent += payload->size();
  object_stats_.snapshot_bytes += payload->size();
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(FrameKind::Delta));
  enc.put_view_id(view);
  enc.put_process(sender);
  enc.put_bool(full);
  enc.put_varint(basis_index);
  enc.put_varint(op_log_.index());
  enc.put_u64(op_log_.hash());
  enc.put_varint(view_ops_delivered_);
  enc.put_bytes(*payload);
  EVS_DEBUG(to_string(id()) << " serves " << (full ? "full" : "delta")
            << " (" << payload->size() << "B) to " << to_string(sender));
  app_multicast(std::move(enc).take());
}

void GroupObjectBase::handle_delta(ProcessId sender, Decoder& dec) {
  const ViewId view = dec.get_view_id();
  const ProcessId target = dec.get_process();
  const bool full = dec.get_bool();
  const std::uint64_t basis_index = dec.get_varint();
  const std::uint64_t cut_index = dec.get_varint();
  const std::uint64_t cut_hash = dec.get_u64();
  const std::uint64_t cut_ops = dec.get_varint();
  const Bytes payload = dec.get_bytes();
  if (view != eview().view.id) return;  // stale
  if (target != id()) return;           // answer to another member's Pull
  // Only the wait on this source's deferred offer takes a Delta answer.
  if (awaiting_from_ != sender || !offers_.at(sender).deferred) return;
  object_stats_.delta_bytes_received += payload.size();
  bool ok = view_ops_cover(cut_ops);
  if (ok && full) {
    ok = install_at_cut(payload, cut_index, cut_hash, cut_ops);
  } else if (ok) {
    // Upgrade the held basis op by op; the source's cut position proves
    // the result is its state.
    try {
      std::vector<LoggedOp> ops = decode_ops(payload);
      ok = basis_index == op_log_.index() &&
           basis_index + ops.size() == cut_index;
      for (std::size_t i = 0; ok && i < ops.size(); ++i) apply_op(ops[i]);
    } catch (const DecodeError&) {
      ++object_stats_.snapshot_decode_errors;
      ok = false;
    }
    ok = ok && op_log_.hash() == cut_hash;
    if (ok) {
      ++object_stats_.delta_installs;
      replay_after_cut(cut_ops);
    }
  }
  if (!ok) {
    // A malformed or mismatched answer: one full-snapshot retry, then
    // give up until the next view change (the member stays settling).
    if (!delta_retry_full_) {
      delta_retry_full_ = true;
      send_pull(true);
    }
    return;
  }
  state_ready(true);
  finish_settle();
  maybe_request_merges();
  try_reconcile();
}

bool GroupObjectBase::view_ops_cover(std::uint64_t cut_ops) const {
  // Every op past the cut must still be at hand to re-apply: none were
  // dropped over the cap, and the cut is not ahead of this member (the
  // total order is causal, so a source's cut never is).
  return view_ops_bytes_ <= kMaxViewOpBytes &&
         view_ops_.size() == view_ops_delivered_ &&
         cut_ops <= view_ops_.size();
}

bool GroupObjectBase::install_may_come() const {
  return settling_ && (!adopted_ || awaiting_from_);
}

void GroupObjectBase::apply_op(const LoggedOp& op) {
  on_object_deliver(op.sender, op.body);
  log_op(op);
}

void GroupObjectBase::log_op(const LoggedOp& op) {
  op_log_.append(op);
  if (op_log_.snapshot_due()) op_log_.write_snapshot(snapshot_state());
}

bool GroupObjectBase::install_at_cut(const Bytes& snapshot,
                                     std::uint64_t index, std::uint64_t hash,
                                     std::uint64_t cut_ops) {
  if (!view_ops_cover(cut_ops)) return false;
  if (!checked_install(snapshot)) return false;
  op_log_.reset(index, hash);
  if (object_config_.persist_state) op_log_.write_snapshot(snapshot_state());
  replay_after_cut(cut_ops);
  return true;
}

void GroupObjectBase::replay_after_cut(std::uint64_t cut_ops) {
  // State only: these ops were delivered (and any client answered) when
  // they came; the install just put them behind the cut again.
  holding_ = false;
  for (std::size_t i = static_cast<std::size_t>(cut_ops); i < view_ops_.size();
       ++i) {
    apply_op(view_ops_[i]);
    ++object_stats_.cut_replays;
  }
}

void GroupObjectBase::recover_op_log() {
  op_log_.attach(&store());
  std::optional<RecoveredLog> log = OpLog::load(store());
  if (!log || (log->snapshot && !checked_install(*log->snapshot))) {
    // Start empty, and say so on disk: a fresh snapshot at (0, 0) keeps
    // the unreadable one from shadowing the ops logged from here on.
    EVS_DEBUG(to_string(id()) << " persisted object state unreadable;"
              << " starting empty");
    if (!log) ++object_stats_.snapshot_decode_errors;
    op_log_.write_snapshot(snapshot_state());
    return;
  }
  op_log_.resume(*log);
  for (std::size_t i = 0; i < log->ops.size(); ++i) {
    LoggedOp& op = log->ops[i];
    try {
      on_object_deliver(op.sender, op.body);
    } catch (const DecodeError&) {
      ++object_stats_.snapshot_decode_errors;
      break;
    }
    op_log_.append_recovered(std::move(op), log->hashes[i]);
    ++object_stats_.recovered_ops;
  }
}

bool GroupObjectBase::checked_install(const Bytes& snapshot) {
  try {
    install_state(snapshot);
    return true;
  } catch (const DecodeError& err) {
    ++object_stats_.snapshot_decode_errors;
    EVS_DEBUG(to_string(id()) << " rejected malformed snapshot ("
              << snapshot.size() << "B): " << err.what());
    return false;
  }
}

void GroupObjectBase::maybe_complete_settle() {
  if (!settling_ || adopted_) return;

  // Completeness.
  if (object_config_.classifier == ClassifierMode::Enriched) {
    for (const core::Subview& sv : eview().structure.subviews()) {
      bool found = false;
      for (const auto& [sender, offer] : offers_) {
        if (offer.subview == sv.id) {
          found = true;
          break;
        }
      }
      if (!found) return;
    }
  } else {
    for (const ProcessId member : eview().view.members) {
      if (!offers_.contains(member)) return;
    }
  }

  if (!classification_ready_) {
    // Flat: derive the exact classification from the discovery replies.
    std::vector<DiscoveryReply> replies;
    for (const auto& [sender, offer] : offers_) {
      replies.push_back(DiscoveryReply{sender, offer.prior_view,
                                       offer.prior_mode, offer.version});
    }
    classification_ = classify_from_discovery(
        replies, eview().view,
        [this](const std::vector<ProcessId>& m) { return can_serve(m); });
    classification_ready_ = true;
  }

  current_settle_.problems = classification_.problems;
  object_stats_.last_problems = classification_.problems;
  EVS_DEBUG(to_string(id()) << " settle complete: problems="
            << problems_to_string(classification_.problems)
            << " offers=" << offers_.size());

  // For merging (and split transfers) we may still be waiting for chunks
  // from the source(s); adopt_states() checks availability itself.
  adopt_states();
  if (adopted_) {
    // The settle may have completed on an offer/chunk arrival rather than
    // an e-view event: drive the merge phase and reconciliation from here.
    maybe_request_merges();
    try_reconcile();
  }
}

void GroupObjectBase::adopt_states() {
  // Each subview's source is its lowest sender (offers_ is ordered).
  std::map<SubviewId, ProcessId> source;
  for (const auto& [sender, offer] : offers_)
    source.try_emplace(offer.subview, sender);

  const auto& serving = classification_.serving_subviews;
  if (serving.size() >= 2) {
    // State merging: requires every cluster's *full* state.
    std::vector<Bytes> inputs;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> positions;
    for (const SubviewId sv : serving) {
      std::optional<Bytes> full = offered_state(source.at(sv));
      if (!full) return;  // chunks still in flight; retry on next chunk
      inputs.push_back(*std::move(full));
      const Offer& offer = offers_.at(source.at(sv));
      positions.emplace_back(offer.op_index, offer.op_hash);
    }
    // merge_cluster_states decodes peer snapshots too: a malformed input
    // is a counted rejection (everyone computes the same merge over the
    // same inputs, so everyone rejects together), never a crash or a
    // half-merged install.
    bool ok = false;
    try {
      const Bytes merged = merge_cluster_states(inputs);
      const auto [index, hash] = merged_position(positions);
      ok = install_at_cut(merged, index, hash, 0);
    } catch (const DecodeError&) {
      ++object_stats_.snapshot_decode_errors;
    }
    ++object_stats_.merges;
    if (!classification_.r_set.empty()) ++object_stats_.transfers;
    if (ok) state_ready(true);
  } else if (serving.size() == 1) {
    // State transfer: stale members adopt the serving subview's state.
    const SubviewId src = serving.front();
    const bool i_am_source =
        object_config_.classifier == ClassifierMode::Enriched
            ? eview().structure.subview_of(id()) == src
            : offers_.contains(id()) && offers_.at(id()).subview == src;
    if (i_am_source && state_current_) {
      state_ready(true);
    } else {
      adopt_offer(source.at(src));
    }
    ++object_stats_.transfers;
  } else {
    // State creation: adopt the freshest state anyone can produce,
    // last-process-to-fail first (recovered epoch), then version.
    const auto winner = std::max_element(
        offers_.begin(), offers_.end(), [](const auto& a, const auto& b) {
          return std::tie(a.second.version, a.second.recovered_epoch, a.first) <
                 std::tie(b.second.version, b.second.recovered_epoch, b.first);
        });
    EVS_CHECK(winner != offers_.end());
    if (winner->first == id()) {
      state_ready(true);
    } else {
      adopt_offer(winner->first);
    }
    ++object_stats_.creations;
  }

  trace_phase(obs::ReconcilePhase::StateAdopted, classification_.problems);
  adopted_ = true;
  ++object_stats_.settles_completed;
  // A settle still waiting is finished by its chunks or Delta answer; a
  // failed install leaves it open until the next view change.
  if (current_settle_.fully_done != 0) finish_settle();
}

void GroupObjectBase::adopt_offer(ProcessId sender) {
  const Offer& offer = offers_.at(sender);
  if (offer.deferred) {
    // Bounded-delta path: the source withheld its snapshot; ask it to
    // upgrade this member's basis instead. The Delta answer finishes the
    // settle.
    awaiting_from_ = sender;
    send_pull(false);
    return;
  }
  if (const std::optional<Bytes> full = offered_state(sender)) {
    if (install_at_cut(*full, offer.op_index, offer.op_hash, 0))
      state_ready(true);
    return;
  }
  // Split strategy: the critical part now, the bulk as its chunks arrive.
  try {
    install_small(offer.snapshot);
  } catch (const DecodeError&) {
    ++object_stats_.snapshot_decode_errors;
    return;
  }
  awaiting_from_ = sender;
  state_ready(false);
}

void GroupObjectBase::state_ready(bool complete) {
  state_current_ = true;
  current_settle_.serve_ready = now();
  if (complete) current_settle_.fully_done = current_settle_.serve_ready;
}

void GroupObjectBase::finish_settle() {
  awaiting_from_.reset();
  trace_phase(obs::ReconcilePhase::FullyDone);
  settle_log_.push_back(current_settle_);
}

bool GroupObjectBase::delta_settle() const {
  return object_config_.delta_transfer &&
         object_config_.classifier == ClassifierMode::Enriched &&
         object_config_.transfer == TransferStrategy::WholeSnapshot &&
         classification_ready_ && classification_.serving_subviews.size() == 1;
}

void GroupObjectBase::trace_phase(obs::ReconcilePhase phase,
                                  std::uint64_t detail) {
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::ReconcilePhase, eview().view.id,
                 {}, static_cast<std::uint64_t>(phase), detail});
  }
}

void GroupObjectBase::maybe_request_merges() {
  if (object_config_.classifier != ClassifierMode::Enriched) return;
  if (!settling_ || !adopted_) return;
  if (eview().structure.subviews().size() == 1 &&
      eview().structure.svsets().size() == 1) {
    return;  // degenerate: done
  }
  if (eview().view.primary() != id()) return;
  if (last_merge_request_ev_ == eview().ev_seq) return;  // already asked
  last_merge_request_ev_ = eview().ev_seq;
  request_merge_all();
}

void GroupObjectBase::try_reconcile() {
  if (!machine_ || machine_->mode() != Mode::Settling) return;
  if (!can_serve(eview().view.members)) return;
  bool done = false;
  if (object_config_.classifier == ClassifierMode::Enriched) {
    done = state_current_ && serving_subview_count() == 1 && my_subview_serves();
  } else {
    done = state_current_ && adopted_;
  }
  if (!done) return;
  EVS_DEBUG(to_string(id()) << " reconciles to NORMAL");
  const Mode before = machine_->mode();
  machine_->reconcile(now());
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::ModeTransition, eview().view.id,
                 {}, static_cast<std::uint64_t>(Transition::Reconcile),
                 static_cast<std::uint64_t>(Mode::Normal),
                 static_cast<std::uint64_t>(before)});
  }
  trace_phase(obs::ReconcilePhase::Reconciled);
  on_mode_change(before, machine_->mode());
}

void GroupObjectBase::export_metrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) const {
  core::EvsEndpoint::export_metrics(registry, prefix);
  registry.counter(prefix + ".settles_started").set(object_stats_.settles_started);
  registry.counter(prefix + ".settles_completed")
      .set(object_stats_.settles_completed);
  registry.counter(prefix + ".transfers").set(object_stats_.transfers);
  registry.counter(prefix + ".creations").set(object_stats_.creations);
  registry.counter(prefix + ".merges").set(object_stats_.merges);
  registry.counter(prefix + ".discovery_rounds")
      .set(object_stats_.discovery_rounds);
  registry.counter(prefix + ".discovery_messages")
      .set(object_stats_.discovery_messages);
  registry.counter(prefix + ".offer_messages").set(object_stats_.offer_messages);
  registry.counter(prefix + ".snapshot_bytes").set(object_stats_.snapshot_bytes);
  registry.counter(prefix + ".chunk_messages").set(object_stats_.chunk_messages);
  registry.counter(prefix + ".ambiguous_classifications")
      .set(object_stats_.ambiguous_classifications);
  registry.counter(prefix + ".snapshot_decode_errors")
      .set(object_stats_.snapshot_decode_errors);
  registry.counter(prefix + ".deferred_offers").set(object_stats_.deferred_offers);
  registry.counter(prefix + ".delta_pulls").set(object_stats_.delta_pulls);
  registry.counter(prefix + ".delta_serves").set(object_stats_.delta_serves);
  registry.counter(prefix + ".delta_installs").set(object_stats_.delta_installs);
  registry.counter(prefix + ".delta_bytes_sent")
      .set(object_stats_.delta_bytes_sent);
  registry.counter(prefix + ".delta_bytes_received")
      .set(object_stats_.delta_bytes_received);
  registry.counter(prefix + ".delta_full_fallbacks")
      .set(object_stats_.delta_full_fallbacks);
  registry.counter(prefix + ".held_ops").set(object_stats_.held_ops);
  registry.counter(prefix + ".cut_replays").set(object_stats_.cut_replays);
  registry.counter(prefix + ".recovered_ops").set(object_stats_.recovered_ops);
  const OpLogStats& log = op_log_.stats();
  registry.counter(prefix + ".oplog.index").set(op_log_.index());
  registry.counter(prefix + ".oplog.ops_logged").set(log.ops_logged);
  registry.counter(prefix + ".oplog.op_bytes_logged").set(log.op_bytes_logged);
  registry.counter(prefix + ".oplog.snapshots").set(log.snapshots);
  registry.counter(prefix + ".oplog.snapshot_bytes").set(log.snapshot_bytes);
  registry.counter(prefix + ".oplog.ring_bytes").set(op_log_.ring_bytes());
  // Per-phase attribution of svc-originated operations (see the accessor
  // docs in group_object.hpp for the exact spans each one measures).
  registry.histogram(prefix + ".svc.order_us") = order_us_;
  registry.histogram(prefix + ".svc.fence_us") = fence_us_;
  registry.histogram(prefix + ".svc.apply_us") = apply_us_;
  if (machine_.has_value()) {
    const SimTime at = now();
    registry.gauge(prefix + ".mode.normal_us")
        .set(static_cast<double>(machine_->occupancy(Mode::Normal, at)));
    registry.gauge(prefix + ".mode.reduced_us")
        .set(static_cast<double>(machine_->occupancy(Mode::Reduced, at)));
    registry.gauge(prefix + ".mode.settling_us")
        .set(static_cast<double>(machine_->occupancy(Mode::Settling, at)));
    registry.counter(prefix + ".transitions.failure")
        .set(machine_->count(Transition::Failure));
    registry.counter(prefix + ".transitions.repair")
        .set(machine_->count(Transition::Repair));
    registry.counter(prefix + ".transitions.reconfigure")
        .set(machine_->count(Transition::Reconfigure));
    registry.counter(prefix + ".transitions.reconcile")
        .set(machine_->count(Transition::Reconcile));
  }
}

}  // namespace evs::app
