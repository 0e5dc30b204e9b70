#include "order/layers.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace evs::order {

namespace {

// Leading byte of every CausalLayer frame: [tag][vector clock][payload].
constexpr std::uint8_t kCausalTag = 2;

}  // namespace

void export_metrics(const LayerStats& stats, obs::MetricsRegistry& registry,
                    const std::string& prefix) {
  registry.counter(prefix + ".sent").set(stats.sent);
  registry.counter(prefix + ".delivered").set(stats.delivered);
  registry.counter(prefix + ".reordered").set(stats.reordered);
  registry.counter(prefix + ".drained_at_view").set(stats.drained_at_view);
  registry.counter(prefix + ".overhead_bytes").set(stats.overhead_bytes);
}

CausalLayer::CausalLayer(vsync::Endpoint& endpoint, vsync::Delegate& up)
    : endpoint_(endpoint), up_(up) {
  endpoint_.set_delegate(this);
}

void CausalLayer::multicast(Bytes payload) {
  const gms::View& view = endpoint_.view();
  if (delivered_.size() != view.size()) delivered_ = VectorClock(view.size());
  VectorClock stamp = delivered_;
  stamp.increment(view.rank_of(endpoint_.id()));

  ++stats_.sent;
  Encoder enc;
  enc.reserve(payload.size() + 10 * stamp.size() + 8);
  enc.put_u8(kCausalTag);
  stamp.encode(enc);
  enc.put_bytes(payload);
  stats_.overhead_bytes += enc.size() - payload.size();
  endpoint_.multicast(std::move(enc).take());
  // Own delivery comes back through on_deliver like everyone else's.
}

void CausalLayer::on_deliver(ProcessId sender, const Bytes& payload) {
  Decoder dec(payload);
  if (dec.get_u8() != kCausalTag)
    throw DecodeError("CausalLayer: unexpected tag");
  Held held;
  held.sender = sender;
  held.vc = VectorClock::decode(dec);
  held.payload = dec.get_bytes();
  if (held.vc.size() != endpoint_.view().size()) {
    // A message stamped in a different view slipped through the flush of a
    // concurrent membership; deliver it unordered rather than drop it.
    deliver(held);
    return;
  }
  held_.push_back(std::move(held));
  drain_ready();
}

void CausalLayer::drain_ready() {
  const gms::View& view = endpoint_.view();
  if (delivered_.size() != view.size()) delivered_ = VectorClock(view.size());
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < held_.size(); ++i) {
      const Held& h = held_[i];
      if (!view.contains(h.sender)) continue;
      const std::size_t rank = view.rank_of(h.sender);
      if (h.vc.deliverable_at(rank, delivered_)) {
        delivered_.set(rank, h.vc.at(rank));
        deliver(h);
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        break;
      }
    }
  }
  stats_.reordered += held_.size();
}

void CausalLayer::deliver(const Held& held) {
  ++stats_.delivered;
  up_.on_deliver(held.sender, held.payload);
}

void CausalLayer::on_view(const gms::View& view, const vsync::InstallInfo& info) {
  // Drain everything still held, deterministically: Agreement says every
  // survivor holds the same set, so sorting by (vc-total, sender, clock)
  // yields the same order everywhere. Dependencies that never arrived were
  // delivered nowhere, so skipping them cannot split histories.
  std::sort(held_.begin(), held_.end(), [](const Held& a, const Held& b) {
    if (a.vc.total() != b.vc.total()) return a.vc.total() < b.vc.total();
    if (a.sender != b.sender) return a.sender < b.sender;
    return a.vc.str() < b.vc.str();
  });
  stats_.drained_at_view += held_.size();
  if (auto* bus = endpoint_.trace(); bus != nullptr && bus->enabled()) {
    if (!held_.empty()) {
      // The endpoint has already installed `view`; the drain is the first
      // thing that happens in it.
      bus->record({endpoint_.now(), endpoint_.id(), obs::EventKind::OrderDrain,
                   view.id, {}, 0, held_.size()});
    }
  }
  for (const Held& h : held_) deliver(h);
  held_.clear();
  delivered_ = VectorClock(view.size());
  up_.on_view(view, info);
}

void CausalLayer::on_block() { up_.on_block(); }

Bytes CausalLayer::flush_context() { return up_.flush_context(); }

}  // namespace evs::order
