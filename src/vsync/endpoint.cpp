#include "vsync/endpoint.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace evs::vsync {

namespace {

const std::vector<gms::MemberContext> kNoContexts;
const std::vector<std::pair<ViewId, std::vector<gms::FlushedMessage>>> kNoUnions;

}  // namespace

Endpoint::Endpoint(EndpointConfig config) : config_(std::move(config)) {}

Endpoint::~Endpoint() = default;

void Endpoint::on_start() {
  detector::DetectorHost host;
  host.send_heartbeat = [this](SiteId site) {
    // Every heartbeat names the sender's view epoch, so a member left out
    // of a view its peers moved on to learns it (see handle_heartbeat).
    Encoder body;
    body.put_varint(view_.id.epoch);
    send_to_site(site, gms::frame(gms::Channel::Heartbeat, std::move(body)));
  };
  host.set_timer = [this](SimDuration d, std::function<void()> fn) {
    set_timer(d, std::move(fn));
  };
  host.now = [this]() { return now(); };
  host.trace = trace();

  detector_ = std::make_unique<detector::HeartbeatDetector>(
      id(), config_.universe, std::move(host), config_.detector,
      [this](const std::vector<ProcessId>&) { on_reachability_change(); });

  install_singleton();
  detector_->start();

  // Periodic reconfiguration check (covers lost protocol messages).
  set_timer(config_.check_interval, [this]() { check_tick(); });

  if (config_.stability_interval > 0) {
    set_timer(config_.stability_interval, [this]() { stability_tick(); });
  }
}

void Endpoint::check_tick() {
  maybe_coordinate();
  set_timer(config_.check_interval, [this]() { check_tick(); });
}

void Endpoint::install_singleton() {
  superseded_ = false;
  max_number_seen_ += 1;
  view_.id = ViewId{max_number_seen_, id()};
  view_.members = {id()};
  ++stats_.views_installed;
  stats_.last_install_time = now();
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::ViewInstalled,
                 view_.id, id(), 0, 1});
  }
  if (delegate_ != nullptr)
    delegate_->on_view(view_, InstallInfo{kNoContexts, kNoUnions});
}

void Endpoint::multicast(Bytes payload) {
  if (left_) return;
  if (blocked()) {
    pending_sends_.push_back(std::move(payload));
    return;
  }
  ++stats_.data_multicast;
  gms::DataMsg msg;
  msg.view = view_.id;
  msg.seq = ++send_seq_;
  msg.payload = std::move(payload);
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::MessageSent, view_.id,
                 id(), msg.seq, obs::payload_hash(msg.payload)});
  }

  Encoder body;
  body.reserve(msg.payload.size() + 32);
  msg.encode(body);
  fan_out(view_.members, gms::Channel::Data, std::move(body));
  // Self-delivery goes through the normal acceptance path so the message
  // is buffered for the flush and delivered FIFO like any other.
  accept_data(id(), std::move(msg));
}

void Endpoint::leave() {
  if (left_) return;
  left_ = true;
  Encoder body;
  fan_out(view_.members, gms::Channel::Leave, std::move(body));
  // Tear the incarnation down once the announcements are on the wire.
  set_timer(0, [this]() { halt(); });
}

void Endpoint::on_message(ProcessId from, const Bytes& payload) {
  Decoder dec(payload);
  try {
    switch (gms::peek_channel(dec)) {
      case gms::Channel::Heartbeat:
        handle_heartbeat(from, dec);
        break;
      case gms::Channel::Membership:
        handle_membership(from, dec);
        break;
      case gms::Channel::Data:
        handle_data(from, dec);
        break;
      case gms::Channel::Stability:
        handle_stability(from, dec);
        break;
      case gms::Channel::Leave:
        handle_leave(from);
        break;
    }
  } catch (const DecodeError& err) {
    // A malformed payload must never corrupt protocol state.
    std::ostringstream head;
    for (std::size_t i = 0; i < payload.size() && i < 8; ++i)
      head << static_cast<int>(payload[i]) << " ";
    EVS_WARN(to_string(id()) << " dropped malformed message from "
                             << to_string(from) << ": " << err.what()
                             << " [size=" << payload.size() << " head="
                             << head.str() << "]");
    ++stats_.messages_discarded;
  }
}

void Endpoint::handle_heartbeat(ProcessId from, Decoder& dec) {
  const bool unheard = !detector_->is_reachable(from);
  detector_->on_heartbeat(from);
  // A peer we did not hear is back (it restarted, or a partition healed).
  // Once it completes the picture — every site of the universe heard —
  // act on it now rather than at the next tick. While some site is still
  // unheard the tick decides, so a heal still forms one view, not one per
  // peer heard.
  if (unheard && detector_->is_reachable(from) &&
      detector_->hears_every_site())
    detector_->evaluate();
  if (dec.remaining() == 0) return;  // bare heartbeat: no view to compare
  const std::uint64_t peer_epoch = dec.get_varint();
  // A member of our view already installed a later one: our view was
  // split without us (a one-way failure let it suspect us while we kept
  // hearing it). Nobody else may start the merge — we can be the lowest
  // desired member — so take it up ourselves.
  if (from == id() || peer_epoch <= view_.id.epoch || !view_.contains(from))
    return;
  max_number_seen_ = std::max(max_number_seen_, peer_epoch);
  if (superseded_) return;
  superseded_ = true;
  maybe_coordinate();
}

void Endpoint::handle_leave(ProcessId from) {
  detector_->mark_left(from);
}

void Endpoint::handle_membership(ProcessId from, Decoder& dec) {
  const auto kind = static_cast<gms::MembershipKind>(dec.get_u8());
  switch (kind) {
    case gms::MembershipKind::Propose:
      handle_propose(from, gms::Propose::decode(dec));
      break;
    case gms::MembershipKind::Ack:
      handle_ack(from, gms::Ack::decode(dec));
      break;
    case gms::MembershipKind::Install:
      handle_install(gms::Install::decode(dec));
      break;
    case gms::MembershipKind::Nack: {
      const gms::Nack nack = gms::Nack::decode(dec);
      max_number_seen_ = std::max(max_number_seen_, nack.max_number_seen);
      if (coordinating_ && coordinating_->round == nack.round) {
        // Our number was too low (e.g. the other side of a healed
        // partition has a higher epoch). Restart with a bigger one.
        const std::vector<ProcessId> members = coordinating_->proposed;
        coordinating_.reset();
        start_round(members);
      }
      break;
    }
    default:
      throw DecodeError("unknown membership kind " +
                        std::to_string(static_cast<int>(kind)));
  }
}

gms::Ack Endpoint::make_ack(gms::RoundId round) {
  gms::Ack ack;
  ack.round = round;
  ack.prior_view = view_.id;
  ack.max_number_seen = max_number_seen_;
  ack.unstable.reserve(buffer_.size());
  for (const auto& [key, payload] : buffer_) {
    ack.unstable.push_back(gms::FlushedMessage{key.first, key.second, payload});
  }
  if (delegate_ != nullptr) ack.context = delegate_->flush_context();
  return ack;
}

void Endpoint::handle_propose(ProcessId from, const gms::Propose& msg) {
  max_number_seen_ = std::max(max_number_seen_, msg.round.number);
  const bool number_ok = msg.round.number > view_.id.epoch &&
                         (!acked_round_ || msg.round > *acked_round_);
  if (!number_ok) {
    if (from != id()) {
      gms::Nack nack;
      nack.round = msg.round;
      nack.max_number_seen =
          std::max(max_number_seen_,
                   acked_round_ ? acked_round_->number : std::uint64_t{0});
      Encoder body;
      body.put_u8(static_cast<std::uint8_t>(gms::MembershipKind::Nack));
      nack.encode(body);
      send_framed(from, gms::Channel::Membership, std::move(body));
    }
    return;
  }
  if (!std::binary_search(msg.members.begin(), msg.members.end(), id())) {
    // We are being excluded; our own reconfiguration logic will form a
    // view on our side of the world.
    return;
  }
  if (from != id() && excludes_heard_member(from, msg.members)) return;

  const bool was_blocked = blocked();
  acked_round_ = msg.round;
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::ViewAcked, view_.id,
                 from, msg.round.number, msg.members.size()});
  }
  if (!was_blocked) {
    blocked_since_ = now();
    if (delegate_ != nullptr) delegate_->on_block();
  }
  // A strictly higher competing round kills any round we were running.
  if (coordinating_ && coordinating_->round < msg.round) coordinating_.reset();

  gms::Ack ack = make_ack(msg.round);
  if (from == id()) {
    handle_ack(id(), ack);
    return;
  }
  Encoder body;
  body.put_u8(static_cast<std::uint8_t>(gms::MembershipKind::Ack));
  ack.encode(body);
  stats_.ack_bytes += body.size();
  send_framed(from, gms::Channel::Membership, std::move(body));
}

bool Endpoint::excludes_heard_member(
    ProcessId proposer, const std::vector<ProcessId>& members) const {
  // A proposer we started hearing only now (it restarted, or a partition
  // healed) may simply not have heard the rest of our view yet. Joining
  // its view would leave a member we still hear behind — alone with
  // whatever it delivered and acknowledged since — so wait out one
  // suspect timeout for the proposer to learn of it and for the merged
  // round to come. Past that, the exclusion stands (a one-way failure).
  // A proposer we do not hear at all has not been heard since it came
  // back, so its reachable_since is stale and counts as just heard.
  if (detector_->is_reachable(proposer) &&
      now() - detector_->reachable_since(proposer) >=
          config_.detector.suspect_timeout)
    return false;
  for (const ProcessId member : view_.members) {
    if (member != id() && detector_->is_reachable(member) &&
        !std::binary_search(members.begin(), members.end(), member))
      return true;
  }
  return false;
}

void Endpoint::handle_ack(ProcessId from, const gms::Ack& msg) {
  if (!coordinating_ || msg.round != coordinating_->round) return;
  max_number_seen_ = std::max(max_number_seen_, msg.max_number_seen);
  if (msg.max_number_seen > coordinating_->round.number) {
    // Someone has seen a higher number than our round; restart above it.
    const std::vector<ProcessId> members = coordinating_->proposed;
    coordinating_.reset();
    start_round(members);
    return;
  }
  coordinating_->acks[from] = msg;
  if (coordinating_->acks.size() == coordinating_->proposed.size())
    finish_round();
}

void Endpoint::start_round(std::vector<ProcessId> members) {
  EVS_CHECK(std::binary_search(members.begin(), members.end(), id()));
  const std::uint64_t number = ++max_number_seen_;
  const gms::RoundId round{number, id()};
  coordinating_ = Coordinating{round, members, {}};
  ++stats_.rounds_started;
  EVS_DEBUG(to_string(id()) << " starts round " << gms::to_string(round));
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::ViewProposed,
                 view_.id, id(), round.number, members.size()});
  }

  gms::Propose propose;
  propose.round = round;
  propose.members = members;
  Encoder body;
  body.put_u8(static_cast<std::uint8_t>(gms::MembershipKind::Propose));
  propose.encode(body);
  fan_out(members, gms::Channel::Membership, std::move(body));
  // Self-propose freezes us and self-acks.
  handle_propose(id(), propose);

  set_timer(config_.round_retry, [this, round]() {
    if (!coordinating_ || coordinating_->round != round) return;
    // Round stalled (lost messages or members died mid-round): abandon it;
    // maybe_coordinate() restarts from fresh detector state.
    coordinating_.reset();
    maybe_coordinate();
  });
}

void Endpoint::finish_round() {
  EVS_CHECK(coordinating_.has_value());
  Coordinating coord = std::move(*coordinating_);

  gms::Install install;
  install.round = coord.round;
  install.view.id = ViewId{coord.round.number, id()};
  install.view.members = coord.proposed;

  // Per-prior-view unions of unstable messages, deduplicated by
  // (sender, seq); deterministic order via std::map.
  std::map<ViewId, std::map<std::pair<ProcessId, std::uint64_t>, Bytes>> unions;
  for (const auto& [member, ack] : coord.acks) {
    install.contexts.push_back(
        gms::MemberContext{member, ack.prior_view, ack.context});
    auto& bucket = unions[ack.prior_view];
    for (const gms::FlushedMessage& fm : ack.unstable) {
      bucket.emplace(std::make_pair(fm.sender, fm.seq), fm.payload);
    }
  }
  for (auto& [view_id, bucket] : unions) {
    std::vector<gms::FlushedMessage> messages;
    messages.reserve(bucket.size());
    for (auto& [key, payload] : bucket) {
      messages.push_back(
          gms::FlushedMessage{key.first, key.second, std::move(payload)});
    }
    install.unions.emplace_back(view_id, std::move(messages));
  }

  ++stats_.rounds_completed;
  Encoder body;
  body.put_u8(static_cast<std::uint8_t>(gms::MembershipKind::Install));
  install.encode(body);
  // install_bytes stays per-recipient: sharing the buffer must not change
  // what the wire carries, only how often we build it.
  for (const ProcessId member : coord.proposed)
    if (member != id()) stats_.install_bytes += body.size();
  fan_out(coord.proposed, gms::Channel::Membership, std::move(body));
  handle_install(install);
}

void Endpoint::handle_install(const gms::Install& msg) {
  if (!acked_round_ || msg.round != *acked_round_) return;  // stale round
  EVS_DEBUG(to_string(id()) << " installs " << gms::to_string(msg.view));

  // Deliver the remainder of our own prior view's union — still in the old
  // view, preserving Uniqueness (P2.2) and establishing Agreement (P2.1).
  for (const auto& [view_id, messages] : msg.unions) {
    if (view_id != view_.id) continue;
    for (const gms::FlushedMessage& fm : messages) {
      if (already_delivered(fm.sender, fm.seq)) continue;
      ++stats_.flush_deliveries;
      deliver(fm.sender, fm.seq, fm.payload);
    }
  }

  view_ = msg.view;
  superseded_ = false;
  // Every member acked this round, so each was alive moments ago: count
  // it heard for one suspect timeout, or a member that restarted and has
  // not yet heard the others would vote them, and so itself, out again.
  for (const ProcessId member : view_.members) detector_->presume_alive(member);
  max_number_seen_ = std::max(max_number_seen_, view_.id.epoch);
  buffer_.clear();
  streams_.clear();
  stability_reports_.clear();
  send_seq_ = 0;
  acked_round_.reset();
  coordinating_.reset();
  ++stats_.views_installed;
  stats_.last_install_time = now();
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    bus->record({now(), id(), obs::EventKind::ViewInstalled,
                 view_.id, msg.round.coordinator, msg.round.number,
                 view_.members.size()});
  }

  if (delegate_ != nullptr)
    delegate_->on_view(view_, InstallInfo{msg.contexts, msg.unions});

  // Sends queued while frozen go out in the new view.
  while (!pending_sends_.empty() && !blocked()) {
    Bytes payload = std::move(pending_sends_.front());
    pending_sends_.pop_front();
    multicast(std::move(payload));
  }

  // Replay data that raced ahead of this install, and drop stale stashes.
  const auto it = future_stash_.find(view_.id);
  if (it != future_stash_.end()) {
    auto replay = std::move(it->second);
    future_stash_.erase(it);
    for (auto& [sender, dm] : replay) accept_data(sender, std::move(dm));
  }
  std::erase_if(future_stash_,
                [this](const auto& entry) { return entry.first <= view_.id; });

  // A peer heard during the round is admitted now, not at the next check.
  maybe_coordinate();
}

void Endpoint::handle_data(ProcessId from, Decoder& dec) {
  gms::DataMsg msg;
  try {
    msg = gms::DataMsg::decode(dec);
  } catch (const DecodeError& err) {
    throw DecodeError(std::string("datamsg: ") + err.what());
  }
  if (msg.view == view_.id) {
    accept_data(from, std::move(msg));
    return;
  }
  if (view_.id < msg.view) {
    // Possibly a view we are about to install; hold it briefly.
    auto& stash = future_stash_[msg.view];
    if (stash.size() < kMaxStashPerView) {
      stash.emplace_back(from, std::move(msg));
      return;
    }
  }
  ++stats_.messages_discarded;
}

void Endpoint::accept_data(ProcessId sender, gms::DataMsg msg) {
  if (msg.view != view_.id) return;
  PerSender& stream = streams_[sender];
  if (msg.seq < stream.next_expected) return;  // duplicate
  const auto key = std::make_pair(sender, msg.seq);
  if (buffer_.contains(key)) return;  // duplicate
  buffer_.emplace(key, msg.payload);
  stats_.buffer_peak = std::max(stats_.buffer_peak, buffer_.size());
  stream.pending.emplace(msg.seq, std::move(msg.payload));
  if (!blocked()) try_deliver(sender);
}

void Endpoint::try_deliver(ProcessId sender) {
  PerSender& stream = streams_[sender];
  for (;;) {
    const auto it = stream.pending.find(stream.next_expected);
    if (it == stream.pending.end()) break;
    Bytes payload = std::move(it->second);
    stream.pending.erase(it);
    const std::uint64_t seq = stream.next_expected;
    ++stream.next_expected;
    ++stats_.data_delivered;
    if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
      bus->record({now(), id(), obs::EventKind::MessageDelivered,
                   view_.id, sender, seq, obs::payload_hash(payload)});
    }
    if (delegate_ != nullptr) delegate_->on_deliver(sender, payload);
  }
}

void Endpoint::deliver(ProcessId sender, std::uint64_t seq, const Bytes& payload) {
  // Flush-path delivery: out-of-FIFO order is fine here, the union is the
  // agreed final set for the dying view. Advance bookkeeping so a
  // duplicate can never deliver twice.
  PerSender& stream = streams_[sender];
  stream.pending.erase(seq);
  if (seq >= stream.next_expected) stream.next_expected = seq + 1;
  ++stats_.data_delivered;
  if (auto* bus = trace(); bus != nullptr && bus->enabled()) {
    // view_ is still the dying view here — flush deliveries belong to it.
    bus->record({now(), id(), obs::EventKind::FlushDelivery,
                 view_.id, sender, seq, obs::payload_hash(payload)});
  }
  if (delegate_ != nullptr) delegate_->on_deliver(sender, payload);
}

bool Endpoint::already_delivered(ProcessId sender, std::uint64_t seq) const {
  const auto it = streams_.find(sender);
  if (it == streams_.end()) return false;
  // Delivered = below the contiguous front and not waiting in pending.
  return seq < it->second.next_expected && !it->second.pending.contains(seq);
}

void Endpoint::on_reachability_change() {
  // A round whose membership is no longer the one the detector asks for
  // either never completes (a proposed member vanished) or is followed at
  // once by another view (a peer it leaves out is heard now, and the
  // member that ignored the round for dropping that peer never acks).
  // Abandon it and coordinate afresh.
  if (coordinating_ &&
      coordinating_->proposed !=
          gms::admit(config_.policy, view_.members, detector_->reachable()))
    coordinating_.reset();
  maybe_coordinate();
}

void Endpoint::maybe_coordinate() {
  if (left_ || coordinating_) return;
  const std::vector<ProcessId> reachable = detector_->reachable();
  const std::vector<ProcessId> desired =
      gms::admit(config_.policy, view_.members, reachable);
  if (desired.empty()) return;

  const bool needs_change = desired != view_.members || superseded_;
  // Frozen in a round nobody runs any more: one of our own we abandoned
  // (we are not coordinating here), or one blocked for too long.
  const bool stale_block =
      blocked() && (acked_round_->coordinator == id() ||
                    now() - blocked_since_ > config_.stale_block_timeout);
  if (blocked() && !stale_block) return;  // let the running round finish
  if (!needs_change && !stale_block) return;
  if (desired.front() != id()) return;  // not our job
  start_round(desired);
}

SharedBytes Endpoint::frame_once(gms::Channel channel, Encoder&& body) {
  ++stats_.frames_encoded;
  SharedBytes framed(gms::frame(channel, std::move(body)));
  stats_.frame_bytes_encoded += framed.size();
  return framed;
}

void Endpoint::fan_out(const std::vector<ProcessId>& recipients,
                       gms::Channel channel, Encoder&& body) {
  std::vector<ProcessId> others;
  others.reserve(recipients.size());
  for (const ProcessId member : recipients)
    if (member != id()) others.push_back(member);
  if (others.empty()) return;
  send_multi(others, frame_once(channel, std::move(body)));
}

void Endpoint::send_framed(ProcessId to, gms::Channel channel, Encoder&& body) {
  send_multi({to}, frame_once(channel, std::move(body)));
}

void Endpoint::stability_tick() {
  if (!left_ && view_.size() > 1 && !blocked()) {
    gms::StabilityMsg msg;
    msg.view = view_.id;
    msg.delivered_upto.reserve(view_.size());
    for (const ProcessId member : view_.members) {
      const auto it = streams_.find(member);
      msg.delivered_upto.push_back(
          it == streams_.end() ? 0 : it->second.next_expected - 1);
    }
    stability_reports_[id()] = msg.delivered_upto;
    Encoder body;
    msg.encode(body);
    fan_out(view_.members, gms::Channel::Stability, std::move(body));
    collect_garbage();
  }
  set_timer(config_.stability_interval, [this]() { stability_tick(); });
}

void Endpoint::handle_stability(ProcessId from, Decoder& dec) {
  const gms::StabilityMsg msg = gms::StabilityMsg::decode(dec);
  if (msg.view != view_.id) return;
  if (msg.delivered_upto.size() != view_.size()) return;
  stability_reports_[from] = msg.delivered_upto;
  collect_garbage();
}

void Endpoint::collect_garbage() {
  if (stability_reports_.size() < view_.size()) return;
  // A message (s, seq) is stable once every member has delivered the
  // contiguous prefix through seq; it can never be needed by a flush.
  for (std::size_t rank = 0; rank < view_.size(); ++rank) {
    const ProcessId sender = view_.members[rank];
    std::uint64_t stable = UINT64_MAX;
    bool have_all = true;
    for (const ProcessId member : view_.members) {
      const auto it = stability_reports_.find(member);
      if (it == stability_reports_.end() || it->second.size() != view_.size()) {
        have_all = false;
        break;
      }
      stable = std::min(stable, it->second[rank]);
    }
    if (!have_all) return;
    const auto begin = buffer_.lower_bound(std::make_pair(sender, std::uint64_t{0}));
    auto it = begin;
    while (it != buffer_.end() && it->first.first == sender &&
           it->first.second <= stable) {
      ++stats_.stability_gc_messages;
      it = buffer_.erase(it);
    }
  }
}

void Endpoint::export_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const {
  registry.counter(prefix + ".views_installed").set(stats_.views_installed);
  registry.counter(prefix + ".rounds_started").set(stats_.rounds_started);
  registry.counter(prefix + ".rounds_completed").set(stats_.rounds_completed);
  registry.counter(prefix + ".data_multicast").set(stats_.data_multicast);
  registry.counter(prefix + ".data_delivered").set(stats_.data_delivered);
  registry.counter(prefix + ".flush_deliveries").set(stats_.flush_deliveries);
  registry.counter(prefix + ".messages_discarded").set(stats_.messages_discarded);
  registry.counter(prefix + ".install_bytes").set(stats_.install_bytes);
  registry.counter(prefix + ".ack_bytes").set(stats_.ack_bytes);
  registry.counter(prefix + ".stability_gc_messages")
      .set(stats_.stability_gc_messages);
  registry.counter(prefix + ".frames_encoded").set(stats_.frames_encoded);
  registry.counter(prefix + ".frame_bytes_encoded")
      .set(stats_.frame_bytes_encoded);
  registry.counter(prefix + ".buffer_peak").set(stats_.buffer_peak);
  if (detector_ != nullptr)
    detector_->export_metrics(registry, prefix + ".detector");
}

std::string Endpoint::admin_status_fields() const {
  std::ostringstream os;
  os << "\"process\":\"" << to_string(id()) << "\""
     << ",\"view\":\"" << to_string(view_.id) << "\""
     << ",\"view_epoch\":" << view_.id.epoch << ",\"members\":[";
  for (std::size_t i = 0; i < view_.members.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << to_string(view_.members[i]) << '"';
  }
  os << "],\"blocked\":" << (blocked() ? "true" : "false")
     << ",\"buffered\":" << buffer_.size()
     << ",\"views_installed\":" << stats_.views_installed
     << ",\"data_multicast\":" << stats_.data_multicast
     << ",\"data_delivered\":" << stats_.data_delivered;
  return os.str();
}

std::string Endpoint::admin_status_json() const {
  return "{" + admin_status_fields() + "}";
}

}  // namespace evs::vsync
