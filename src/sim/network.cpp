#include "sim/network.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace evs::sim {

Network::Network(Scheduler& scheduler, Rng rng, NetworkConfig config)
    : scheduler_(scheduler), rng_(rng), config_(config) {}

void Network::attach(ProcessId id, Handler handler) {
  EVS_CHECK(handler != nullptr);
  const auto [it, inserted] = handlers_.emplace(id, std::move(handler));
  (void)it;
  EVS_CHECK_MSG(inserted, "process attached twice: " + to_string(id));
  site_endpoint_[id.site] = id;
}

void Network::detach(ProcessId id) {
  handlers_.erase(id);
  const auto it = site_endpoint_.find(id.site);
  if (it != site_endpoint_.end() && it->second == id) site_endpoint_.erase(it);
}

bool Network::attached(ProcessId id) const { return handlers_.contains(id); }

std::uint32_t Network::component_of(SiteId site) const {
  const auto it = component_.find(site);
  if (it != component_.end()) return it->second;
  // Sites not named in the partition spec are isolated.
  return 0x80000000u | site.value;
}

bool Network::reachable(SiteId a, SiteId b) const {
  if (a == b) return true;  // loopback always works
  if (!partitioned_) return true;
  return component_of(a) == component_of(b);
}

void Network::set_partition(const std::vector<std::vector<SiteId>>& groups) {
  component_.clear();
  std::uint32_t index = 0;
  for (const auto& group : groups) {
    for (const SiteId site : group) {
      const auto [it, inserted] = component_.emplace(site, index);
      (void)it;
      EVS_CHECK_MSG(inserted, "site in two partition groups");
    }
    ++index;
  }
  partitioned_ = true;
  ++topology_version_;
}

void Network::heal() {
  component_.clear();
  partitioned_ = false;
  blocked_links_.clear();
  ++topology_version_;
}

void Network::block_link(SiteId from, SiteId to) {
  blocked_links_.emplace(from, to);
}

void Network::unblock_link(SiteId from, SiteId to) {
  blocked_links_.erase({from, to});
}

void Network::send(ProcessId from, ProcessId to, Bytes payload) {
  ++stats_.payload_copies;
  enqueue(from, to.site, to, SharedBytes(std::move(payload)));
}

void Network::send_to_site(ProcessId from, SiteId site, Bytes payload) {
  ++stats_.payload_copies;
  enqueue(from, site, std::nullopt, SharedBytes(std::move(payload)));
}

void Network::send_multi(ProcessId from,
                         const std::vector<ProcessId>& recipients,
                         SharedBytes payload) {
  stats_.payloads_shared += recipients.size();
  for (const ProcessId to : recipients) enqueue(from, to.site, to, payload);
}

void Network::enqueue(ProcessId from, SiteId site, std::optional<ProcessId> to,
                      SharedBytes payload) {
  ++stats_.messages_sent;
  stats_.bytes_sent += payload.size();

  if (!reachable(from.site, site) || blocked_links_.contains({from.site, site})) {
    ++stats_.dropped_partition;
    return;
  }
  if (config_.loss_rate > 0.0 && rng_.bernoulli(config_.loss_rate)) {
    ++stats_.dropped_loss;
    return;
  }

  const SimDuration delay = transit_delay(from.site, site, payload.size());
  const std::uint64_t version_at_send = topology_version_;

  scheduler_.schedule_after(delay, [this, from, site, to, version_at_send,
                                    payload = std::move(payload)]() {
    ProcessId dest;
    if (to.has_value()) {
      dest = *to;
    } else {
      // Site addressing: resolve the incarnation at delivery time.
      const auto it = site_endpoint_.find(site);
      if (it == site_endpoint_.end()) {
        ++stats_.dropped_dead;
        return;
      }
      dest = it->second;
    }
    deliver(from, dest, payload.bytes(), version_at_send);
  });
}

SimDuration Network::transit_delay(SiteId from, SiteId to, std::size_t bytes) {
  SimDuration delay =
      config_.min_delay +
      static_cast<SimDuration>(rng_.exponential(config_.mean_jitter_us));
  if (config_.bytes_per_us > 0.0) {
    // Serialise the directed link: transmission begins when the link is
    // free and occupies it for size/bandwidth.
    const auto key = std::make_pair(from, to);
    const SimDuration tx = static_cast<SimDuration>(
        static_cast<double>(bytes) / config_.bytes_per_us);
    SimTime start = scheduler_.now();
    const auto it = link_busy_until_.find(key);
    if (it != link_busy_until_.end() && it->second > start) start = it->second;
    link_busy_until_[key] = start + tx;
    delay += (start + tx) - scheduler_.now();
  }
  return delay;
}

void Network::deliver(ProcessId from, ProcessId to, const Bytes& payload,
                      std::uint64_t version_at_send) {
  if (config_.drop_in_flight_on_partition &&
      topology_version_ != version_at_send &&
      !reachable(from.site, to.site)) {
    ++stats_.dropped_partition;
    return;
  }
  const auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    // Destination incarnation crashed (or never existed).
    ++stats_.dropped_dead;
    return;
  }
  ++stats_.messages_delivered;
  stats_.bytes_delivered += payload.size();
  it->second(from, payload);
}

void Network::export_metrics(obs::MetricsRegistry& registry,
                             const std::string& prefix) const {
  registry.counter(prefix + ".messages_sent").set(stats_.messages_sent);
  registry.counter(prefix + ".messages_delivered").set(stats_.messages_delivered);
  registry.counter(prefix + ".dropped_partition").set(stats_.dropped_partition);
  registry.counter(prefix + ".dropped_loss").set(stats_.dropped_loss);
  registry.counter(prefix + ".dropped_dead").set(stats_.dropped_dead);
  registry.counter(prefix + ".bytes_sent").set(stats_.bytes_sent);
  registry.counter(prefix + ".bytes_delivered").set(stats_.bytes_delivered);
  registry.counter(prefix + ".payload_copies").set(stats_.payload_copies);
  registry.counter(prefix + ".payloads_shared").set(stats_.payloads_shared);
}

}  // namespace evs::sim
