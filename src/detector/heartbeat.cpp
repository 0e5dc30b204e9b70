#include "detector/heartbeat.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace evs::detector {

HeartbeatDetector::HeartbeatDetector(ProcessId self, std::vector<SiteId> universe,
                                     DetectorHost host, DetectorConfig config,
                                     ChangeCallback on_change)
    : self_(self),
      universe_(std::move(universe)),
      host_(std::move(host)),
      config_(config),
      on_change_(std::move(on_change)) {
  EVS_CHECK(host_.send_heartbeat != nullptr);
  EVS_CHECK(host_.set_timer != nullptr);
  EVS_CHECK(host_.now != nullptr);
  last_reported_ = {self_};
}

void HeartbeatDetector::start() {
  EVS_CHECK(!started_);
  started_ = true;
  tick();
}

void HeartbeatDetector::tick() {
  for (const SiteId site : universe_) {
    if (site == self_.site) continue;
    host_.send_heartbeat(site);
    ++stats_.heartbeats_sent;
  }
  evaluate();
  host_.set_timer(config_.heartbeat_interval, [this]() { tick(); });
}

void HeartbeatDetector::on_heartbeat(ProcessId from) {
  if (left_.contains(from)) return;
  ++stats_.heartbeats_received;
  mark_heard(from);
}

void HeartbeatDetector::presume_alive(ProcessId id) {
  if (id == self_ || left_.contains(id)) return;
  // A view may still name an incarnation whose successor we already hear.
  for (const auto& entry : last_seen_) {
    if (entry.first.site == id.site && entry.first.incarnation > id.incarnation)
      return;
  }
  mark_heard(id);
}

void HeartbeatDetector::mark_heard(ProcessId id) {
  // A newer incarnation at the same site supersedes the older one: the
  // old incarnation is dead by definition.
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    if (it->first.site == id.site && it->first.incarnation < id.incarnation) {
      reachable_since_.erase(it->first);
      it = last_seen_.erase(it);
    } else {
      ++it;
    }
  }
  if (!is_reachable(id)) reachable_since_[id] = host_.now();
  last_seen_[id] = host_.now();
}

SimTime HeartbeatDetector::reachable_since(ProcessId id) const {
  const auto it = reachable_since_.find(id);
  return it == reachable_since_.end() ? 0 : it->second;
}

void HeartbeatDetector::mark_left(ProcessId id) {
  left_.insert(id);
  last_seen_.erase(id);
  evaluate();
}

std::vector<ProcessId> HeartbeatDetector::reachable() const {
  const SimTime now = host_.now();
  std::vector<ProcessId> result;
  result.push_back(self_);
  for (const auto& [id, seen] : last_seen_) {
    if (now - seen <= config_.suspect_timeout) result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

bool HeartbeatDetector::is_reachable(ProcessId id) const {
  if (id == self_) return true;
  const auto it = last_seen_.find(id);
  if (it == last_seen_.end()) return false;
  return host_.now() - it->second <= config_.suspect_timeout;
}

bool HeartbeatDetector::hears_every_site() const {
  const std::vector<ProcessId> current = reachable();
  return std::all_of(universe_.begin(), universe_.end(), [&](SiteId site) {
    return std::any_of(current.begin(), current.end(),
                       [site](ProcessId id) { return id.site == site; });
  });
}

void HeartbeatDetector::evaluate() {
  std::vector<ProcessId> current = reachable();
  if (current == last_reported_) return;
  const bool tracing = host_.trace != nullptr && host_.trace->enabled();
  // Count transitions for stats (suspicion = peer dropped out).
  for (const ProcessId id : last_reported_) {
    if (!std::binary_search(current.begin(), current.end(), id)) {
      ++stats_.suspicions;
      if (tracing) {
        host_.trace->record({host_.now(), self_,
                             obs::EventKind::HeartbeatSuspect, {}, id});
      }
    }
  }
  for (const ProcessId id : current) {
    if (!std::binary_search(last_reported_.begin(), last_reported_.end(), id)) {
      ++stats_.unsuspicions;
      if (tracing) {
        host_.trace->record({host_.now(), self_,
                             obs::EventKind::HeartbeatUnsuspect, {}, id});
      }
    }
  }
  last_reported_ = current;
  if (on_change_) on_change_(current);
}

void HeartbeatDetector::export_metrics(obs::MetricsRegistry& registry,
                                       const std::string& prefix) const {
  registry.counter(prefix + ".heartbeats_sent").set(stats_.heartbeats_sent);
  registry.counter(prefix + ".heartbeats_received")
      .set(stats_.heartbeats_received);
  registry.counter(prefix + ".suspicions").set(stats_.suspicions);
  registry.counter(prefix + ".unsuspicions").set(stats_.unsuspicions);
}

}  // namespace evs::detector
