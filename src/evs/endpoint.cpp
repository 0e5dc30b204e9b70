#include "evs/endpoint.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace evs::core {

namespace {

// Inner framing on top of the view-synchronous payload.
enum class Tag : std::uint8_t {
  Fwd = 1,       // unstamped app payload: [lseq][payload]
  Stamped = 2,   // sequencer's copy:      [origin][lseq][payload]
  EvChange = 3,  // e-view change:         [ev_seq][EvOp]
  MergeReq = 4,  // merge request:         [kind][ids...]
};

}  // namespace

EvsEndpoint::EvsEndpoint(vsync::EndpointConfig config)
    : vsync::Endpoint(std::move(config)) {
  set_delegate(this);
}

// ------------------------------------------------------------- sending ---

void EvsEndpoint::app_multicast(Bytes payload) {
  if (deferring()) {
    // Do not ride the vsync send queue: frames must be built in the e-view
    // they will travel in (the sequencer and lseq_ change across views).
    app_queue_.push_back(std::move(payload));
    return;
  }
  send_app(std::move(payload));
}

void EvsEndpoint::send_app(Bytes payload) {
  ++evs_stats_.app_sent;
  const std::uint64_t seq = ++lseq_;
  Encoder enc;
  enc.reserve(payload.size() + 24);
  if (is_sequencer()) {
    enc.put_u8(static_cast<std::uint8_t>(Tag::Stamped));
    enc.put_process(id());
    enc.put_varint(seq);
    enc.put_bytes(payload);
  } else {
    enc.put_u8(static_cast<std::uint8_t>(Tag::Fwd));
    enc.put_varint(seq);
    enc.put_bytes(payload);
  }
  multicast(std::move(enc).take());
}

void EvsEndpoint::request_sv_set_merge(std::vector<SvSetId> svsets) {
  ++evs_stats_.merges_requested;
  submit_merge({EvOp::Kind::SvSetMerge, std::move(svsets), {}});
}

void EvsEndpoint::request_subview_merge(std::vector<SubviewId> subviews) {
  ++evs_stats_.merges_requested;
  submit_merge({EvOp::Kind::SubviewMerge, {}, std::move(subviews)});
}

void EvsEndpoint::submit_merge(MergeRequest request) {
  if (deferring()) {
    merge_queue_.push_back(std::move(request));
    return;
  }
  if (is_sequencer()) {
    sequence_merge(request);
    return;
  }
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(Tag::MergeReq));
  enc.put_u8(static_cast<std::uint8_t>(request.kind));
  enc.put_vector(request.svsets,
                 [](Encoder& e, SvSetId s) { e.put_svset_id(s); });
  enc.put_vector(request.subviews,
                 [](Encoder& e, SubviewId s) { e.put_subview_id(s); });
  multicast(std::move(enc).take());
}

void EvsEndpoint::request_merge_all() {
  const EViewStructure& s = eview_.structure;
  if (s.svsets().size() > 1) {
    std::vector<SvSetId> ids;
    ids.reserve(s.svsets().size());
    for (const SvSet& ss : s.svsets()) ids.push_back(ss.id);
    request_sv_set_merge(std::move(ids));
    return;
  }
  if (s.subviews().size() > 1) {
    std::vector<SubviewId> ids;
    ids.reserve(s.subviews().size());
    for (const Subview& sv : s.subviews()) ids.push_back(sv.id);
    request_subview_merge(std::move(ids));
  }
}

// ---------------------------------------------------------- sequencing ---

void EvsEndpoint::sequence_merge(const MergeRequest& request) {
  EVS_CHECK(is_sequencer());
  // Validate against the current structure: applying to a copy tells us
  // whether the op is still meaningful (ids may be stale after later
  // merges or view changes).
  EvOp op;
  op.kind = request.kind;
  op.svsets = request.svsets;
  op.subviews = request.subviews;
  // Minted ids live in a separate namespace (high bit offset) so they can
  // never collide with the per-view (min member, epoch) ids that
  // merge_structures assigns at install time.
  ++mint_counter_;
  constexpr std::uint64_t kMintBase = std::uint64_t{1} << 32;
  op.new_svset = SvSetId{id(), kMintBase + mint_counter_};
  op.new_subview = SubviewId{id(), kMintBase + mint_counter_};
  EViewStructure probe = eview_.structure;
  if (!probe.apply(op)) {
    ++evs_stats_.merges_rejected;
    return;
  }
  const std::uint64_t seq = eview_.ev_seq + 1;
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    const bool svset = request.kind == EvOp::Kind::SvSetMerge;
    bus->record({now(), id(),
                 svset ? obs::EventKind::SvSetMerge : obs::EventKind::SubviewMerge,
                 view().id, id(), seq,
                 svset ? request.svsets.size() : request.subviews.size()});
  }
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(Tag::EvChange));
  enc.put_varint(seq);
  op.encode(enc);
  // Self-delivery applies the change synchronously, so eview_.ev_seq has
  // advanced by the time this call returns.
  multicast(std::move(enc).take());
}

// ------------------------------------------------------------ delivery ---

void EvsEndpoint::on_deliver(ProcessId sender, const Bytes& payload) {
  try {
    dispatch_deliver(sender, payload);
  } catch (const DecodeError& err) {
    throw DecodeError(std::string("evs-frame: ") + err.what());
  }
}

void EvsEndpoint::dispatch_deliver(ProcessId sender, const Bytes& payload) {
  Decoder dec(payload);
  switch (static_cast<Tag>(dec.get_u8())) {
    case Tag::Fwd:
      handle_fwd(sender, dec);
      break;
    case Tag::Stamped:
      handle_stamped(dec);
      break;
    case Tag::EvChange:
      handle_ev_change(dec);
      break;
    case Tag::MergeReq:
      handle_merge_req(dec);
      break;
    default:
      throw DecodeError("EvsEndpoint: unknown inner tag");
  }
}

void EvsEndpoint::handle_fwd(ProcessId sender, Decoder& dec) {
  const std::uint64_t lseq = dec.get_varint();
  Bytes body = dec.get_bytes();
  if (lseq <= stamped_upto_[sender]) return;  // stamped copy already seen
  const MsgKey key{sender, lseq};
  unordered_.emplace(key, std::move(body));
  if (is_sequencer() && !blocked()) {
    const auto it = unordered_.find(key);
    ++evs_stats_.stamped;
    Encoder enc;
    enc.reserve(it->second.size() + 24);
    enc.put_u8(static_cast<std::uint8_t>(Tag::Stamped));
    enc.put_process(sender);
    enc.put_varint(lseq);
    enc.put_bytes(it->second);
    multicast(std::move(enc).take());
  }
}

void EvsEndpoint::handle_stamped(Decoder& dec) {
  const ProcessId origin = dec.get_process();
  const std::uint64_t lseq = dec.get_varint();
  Bytes body = dec.get_bytes();
  std::uint64_t& upto = stamped_upto_[origin];
  if (lseq <= upto) return;  // duplicate
  upto = lseq;
  unordered_.erase({origin, lseq});
  deliver_app(origin, body);
}

void EvsEndpoint::handle_ev_change(Decoder& dec) {
  const std::uint64_t seq = dec.get_varint();
  const EvOp op = EvOp::decode(dec);
  if (seq <= eview_.ev_seq) return;  // already applied (flush duplicate)
  // FIFO from the single sequencer keeps these in order. A *gap* can
  // still appear when the sequencer dies and one of its changes was lost
  // to every survivor: Agreement guarantees all survivors then see the
  // same gapped sequence, and an op whose inputs were created by the
  // missing change simply no-ops everywhere — applying past the gap is
  // deterministic and safe.
  if (seq != eview_.ev_seq + 1) {
    EVS_DEBUG(to_string(id()) << " e-view change gap " << eview_.ev_seq
                              << " -> " << seq);
  }
  eview_.structure.apply(op);  // a no-op result is a no-op everywhere
  eview_.ev_seq = seq;
  ++evs_stats_.ev_changes_applied;
  eview_.structure.validate(eview_.view.members);
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::EviewChange, eview_.view.id, {},
                 seq, eview_.structure.subviews().size(),
                 eview_.structure.svsets().size()});
  }
  emit_eview();
}

void EvsEndpoint::handle_merge_req(Decoder& dec) {
  MergeRequest request;
  const std::uint8_t kind = dec.get_u8();
  if (kind != 1 && kind != 2) throw DecodeError("bad merge-request kind");
  request.kind = static_cast<EvOp::Kind>(kind);
  request.svsets =
      dec.get_vector<SvSetId>([](Decoder& d) { return d.get_svset_id(); });
  request.subviews =
      dec.get_vector<SubviewId>([](Decoder& d) { return d.get_subview_id(); });
  if (!is_sequencer()) return;  // only the sequencer acts on requests
  if (blocked()) {
    // A view change is in flight; the requester's queue or a retry by the
    // application covers this — dropping keeps flush determinism simple.
    ++evs_stats_.merge_reqs_dropped;
    return;
  }
  sequence_merge(request);
}

void EvsEndpoint::deliver_app(ProcessId origin, const Bytes& payload) {
  ++evs_stats_.app_delivered;
  if (evs_delegate_ != nullptr) evs_delegate_->on_app_deliver(origin, payload);
}

void EvsEndpoint::emit_eview() {
  ++evs_stats_.eviews_delivered;
  if (evs_delegate_ != nullptr) evs_delegate_->on_eview(eview_);
}

// --------------------------------------------------------- view change ---

Bytes EvsEndpoint::flush_context() {
  StructureContext ctx{eview_.structure, eview_.ev_seq};
  Bytes bytes = ctx.encode();
  evs_stats_.context_bytes += bytes.size();
  return bytes;
}

void EvsEndpoint::on_block() {
  if (evs_delegate_ != nullptr) evs_delegate_->on_app_block();
}

void EvsEndpoint::on_view(const gms::View& view, const vsync::InstallInfo& info) {
  // 1. Drain app messages that never got stamped — deterministic order,
  //    identical set at every survivor (Agreement). Still the old e-view
  //    from the application's perspective, so sends and merge requests
  //    made from these deliveries are queued (deferring()) for step 5.
  evs_stats_.drained_at_view += unordered_.size();
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    if (!unordered_.empty()) {
      // eview_.view is still the dying view here.
      bus->record({now(), id(), obs::EventKind::OrderDrain, eview_.view.id, {},
                   0, unordered_.size()});
    }
  }
  for (const auto& [key, body] : unordered_) {
    try {
      deliver_app(key.first, body);
    } catch (const DecodeError& err) {
      throw DecodeError(std::string("evs-drain: ") + err.what());
    }
  }
  unordered_.clear();
  stamped_upto_.clear();
  lseq_ = 0;

  // 2. Decode every member's frozen structure context.
  std::vector<MemberStructureInfo> infos;
  for (const gms::MemberContext& mc : info.contexts) {
    auto ctx = StructureContext::decode(mc.context);
    if (!ctx) continue;  // no/garbled context -> member becomes a singleton
    infos.push_back(MemberStructureInfo{mc.member, mc.prior_view, *std::move(ctx)});
  }

  // 3. Recover e-view ops that were still in the flush unions, per prior
  //    view, so every cluster's structure is rolled fully forward.
  std::map<ViewId, std::vector<std::pair<std::uint64_t, EvOp>>> pending_ops;
  for (const auto& [view_id, messages] : info.unions) {
    for (const gms::FlushedMessage& fm : messages) {
      try {
        Decoder dec(fm.payload);
        if (static_cast<Tag>(dec.get_u8()) != Tag::EvChange) continue;
        const std::uint64_t seq = dec.get_varint();
        pending_ops[view_id].emplace_back(seq, EvOp::decode(dec));
      } catch (const DecodeError&) {
        // Not an e-view change (or not even an EVS frame): ignore.
      }
    }
  }

  // 4. Deterministic structure merge: identical at every member.
  eview_.view = view;
  eview_.ev_seq = 0;
  eview_.structure = merge_structures(view.id, view.members, infos, pending_ops);
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    // Baseline for the new view: ev_seq 0 with the merged structure.
    bus->record({now(), id(), obs::EventKind::EviewChange, view.id, {}, 0,
                 eview_.structure.subviews().size(),
                 eview_.structure.svsets().size()});
  }
  emit_eview();

  // 5. Re-issue work that was queued while deferring, in the new e-view.
  while (!app_queue_.empty() && !blocked()) {
    Bytes payload = std::move(app_queue_.front());
    app_queue_.pop_front();
    send_app(std::move(payload));
  }
  while (!merge_queue_.empty() && !blocked()) {
    MergeRequest request = std::move(merge_queue_.front());
    merge_queue_.pop_front();
    submit_merge(std::move(request));
  }
}

void EvsEndpoint::export_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  vsync::Endpoint::export_metrics(registry, prefix);
  registry.counter(prefix + ".eviews_delivered").set(evs_stats_.eviews_delivered);
  registry.counter(prefix + ".ev_changes_applied")
      .set(evs_stats_.ev_changes_applied);
  registry.counter(prefix + ".merges_requested").set(evs_stats_.merges_requested);
  registry.counter(prefix + ".merges_rejected").set(evs_stats_.merges_rejected);
  registry.counter(prefix + ".app_sent").set(evs_stats_.app_sent);
  registry.counter(prefix + ".app_delivered").set(evs_stats_.app_delivered);
  registry.counter(prefix + ".stamped").set(evs_stats_.stamped);
  registry.counter(prefix + ".drained_at_view").set(evs_stats_.drained_at_view);
  registry.counter(prefix + ".context_bytes").set(evs_stats_.context_bytes);
  registry.counter(prefix + ".merge_reqs_dropped")
      .set(evs_stats_.merge_reqs_dropped);
}

bool EvsEndpoint::admin_command(const std::string& name, const std::string& arg,
                                std::string& error) {
  if (left()) {
    error = "endpoint has left the group";
    return false;
  }
  if (name == "join") {
    reconfigure();
    return true;
  }
  if (name == "leave") {
    leave();
    return true;
  }
  if (name == "merge-all") {
    // A no-op on a degenerate structure is still an accepted command: the
    // fleet is already in the state the operator asked for.
    request_merge_all();
    return true;
  }
  if (name == "merge") {
    auto ids = parse_svset_ids(arg);
    if (!ids) {
      error = "bad sv-set id list '" + arg + "'";
      return false;
    }
    if (ids->size() < 2) {
      error = "need at least two sv-set ids to merge";
      return false;
    }
    for (const SvSetId& id : *ids) {
      if (eview_.structure.find_svset(id) == nullptr) {
        error = "unknown sv-set " + to_string(id);
        return false;
      }
    }
    request_sv_set_merge(*std::move(ids));
    return true;
  }
  error = "unknown command '" + name + "'";
  return false;
}

std::string EvsEndpoint::admin_status_json() const {
  std::ostringstream os;
  os << "{" << admin_status_fields()
     << ",\"mode\":\"" << (eview_.degenerate() ? "normal" : "split") << "\""
     << ",\"ev_seq\":" << eview_.ev_seq << ",\"subviews\":[";
  const auto& structure = eview_.structure;
  for (std::size_t i = 0; i < structure.subviews().size(); ++i) {
    const auto& sv = structure.subviews()[i];
    if (i != 0) os << ',';
    os << "{\"id\":\"" << to_string(sv.id) << "\",\"members\":[";
    for (std::size_t j = 0; j < sv.members.size(); ++j) {
      if (j != 0) os << ',';
      os << '"' << to_string(sv.members[j]) << '"';
    }
    os << "]}";
  }
  os << "],\"svsets\":[";
  for (std::size_t i = 0; i < structure.svsets().size(); ++i) {
    const auto& set = structure.svsets()[i];
    if (i != 0) os << ',';
    os << "{\"id\":\"" << to_string(set.id) << "\",\"subviews\":[";
    for (std::size_t j = 0; j < set.subviews.size(); ++j) {
      if (j != 0) os << ',';
      os << '"' << to_string(set.subviews[j]) << '"';
    }
    os << "]}";
  }
  os << "],\"app_sent\":" << evs_stats_.app_sent
     << ",\"app_delivered\":" << evs_stats_.app_delivered
     << ",\"eviews_delivered\":" << evs_stats_.eviews_delivered << "}";
  return os.str();
}

}  // namespace evs::core
