#include "net/runtime.hpp"

#include <unistd.h>

#include <sstream>

#include "codec/codec.hpp"
#include "common/check.hpp"
#include "obs/dump.hpp"

namespace evs::net {
namespace {

/// Durable record of the last incarnation that ran at this site.
constexpr char kIncarnationKey[] = "node/incarnation";

}  // namespace

NodeConfig NetRuntime::boot_config() {
  if (!config_.store_dir.empty()) {
    store::WalStoreConfig store_config;
    store_config.dir = config_.store_dir;
    wal_store_ = std::make_unique<store::WalStore>(store_config);
    // A restarted process must never reuse its predecessor's incarnation:
    // peers' receive validation silently drops frames addressed to a
    // stale one, so a same-incarnation restart would be invisible until
    // the detector timed the old incarnation out — and then still
    // indistinguishable from it. Bump monotonically past the durable
    // record and sync before any traffic can leave this process.
    if (const auto prev = wal_store_->get(kIncarnationKey)) {
      try {
        Decoder dec(*prev);
        const std::uint32_t last = dec.get_u32();
        dec.expect_end();
        config_.incarnation = std::max(config_.incarnation, last + 1);
      } catch (const DecodeError&) {
        // Unreadable record: fall through and overwrite it below.
      }
    }
    Encoder enc;
    enc.put_u32(config_.incarnation);
    wal_store_->put(kIncarnationKey, std::move(enc).take());
    wal_store_->flush();
    // Group commit rides the event loop: this hook runs before the
    // transport's own flush hook (registered next, in the UdpTransport
    // constructor), so every record buffered during a loop iteration is
    // on disk before any frame sent in that iteration hits the socket.
    store_flush_hook_ =
        loop_.add_flush_hook([this] { wal_store_->flush(); });
  }
  return config_;
}

NetRuntime::NetRuntime(NodeConfig config)
    : config_(std::move(config)), transport_(loop_, boot_config()) {
  // Same opt-in as sim::World: EVS_TRACE_OUT turns recording on without
  // per-binary plumbing.
  if (!obs::trace_out_dir().empty()) trace_bus_.set_enabled(true);
  // Online checking rides the bus's observer tap: with tracing off the
  // protocol hooks never even build events, so the checker idles (and
  // /health reports healthy over zero events checked).
  trace_bus_.set_observer(
      [this](const obs::TraceEvent& event) { checker_.observe(event); });
  if (const auto addr = config_.self_admin_addr()) {
    admin_ = std::make_unique<AdminServer>(loop_, addr->ip, addr->port);
    admin_->set_trace(&trace_bus_);
    admin_->set_health([this]() { return checker_.health_json(); });
    admin_->set_metrics(&metrics_, [this]() { refresh_metrics(); });
    admin_->set_status([this]() {
      runtime::Node* primary = primary_node();
      std::ostringstream os;
      os << "{\"site\":" << config_.self.value
         << ",\"incarnation\":" << config_.incarnation
         << ",\"process\":\"" << to_string(self()) << "\""
         << ",\"port\":" << transport_.bound_port()
         << ",\"admin_port\":" << admin_->bound_port()
         << ",\"uptime_us\":" << loop_.now()
         << ",\"health\":" << (checker_.healthy() ? "true" : "false")
         << ",\"node\":"
         << (primary != nullptr ? primary->admin_status_json() : "null");
      // Per-group detail only for true multi-group hosts; a single
      // default-group run keeps the exact legacy /status shape.
      if (groups_.size() > 1 || !groups_.contains(kDefaultGroup)) {
        os << ",\"groups\":[";
        bool first = true;
        for (const auto& [id, hosted] : groups_) {
          if (!first) os << ",";
          first = false;
          os << "{\"id\":" << id << ",\"alive\":"
             << (hosted.node->alive() ? "true" : "false")
             << ",\"node\":" << hosted.node->admin_status_json() << "}";
        }
        os << "]";
      }
      os << "}";
      return os.str();
    });
    admin_->set_token(config_.admin_token);
    admin_->set_command([this](const std::string& name,
                               const std::string& arg) {
      AdminCommandResult result;
      runtime::Node* primary = primary_node();
      if (primary == nullptr || !primary->alive()) {
        result.message = "no live node hosted";
      } else {
        result.ok = primary->admin_command(name, arg, result.message);
      }
      if (trace_bus_.enabled()) {
        obs::TraceEvent event;
        event.time = loop_.now();
        event.proc = self();
        event.kind = obs::EventKind::AdminCommand;
        event.seq = admin_command_code(name);
        event.value = result.ok ? 1 : 0;
        trace_bus_.record(event);
      }
      return result;
    });
  }
}

void NetRuntime::refresh_metrics() {
  transport_.export_metrics(metrics_, "transport");
  metrics_.histogram("net.loop_late_us") = loop_.late_us();
  if (admin_ != nullptr) admin_->export_metrics(metrics_, "admin");
  if (wal_store_ != nullptr) {
    wal_store_->export_metrics(metrics_, "store");
    metrics_.counter("store.writes")
        .set(wal_store_->stats().puts + wal_store_->stats().erases);
  } else {
    metrics_.counter("store.writes").set(memory_store_.writes());
    metrics_.counter("store.bytes").set(memory_store_.bytes());
    metrics_.counter("store.keys").set(memory_store_.size());
  }
  metrics_.counter("obs.events_checked").set(checker_.events_checked());
  metrics_.counter("obs.oracle_violations").set(checker_.violations());
  metrics_.counter("obs.checker_saturated").set(checker_.saturated());
  if (metrics_exporter_) metrics_exporter_(metrics_);
}

NetRuntime::~NetRuntime() {
  if (store_flush_hook_ != 0) loop_.remove_flush_hook(store_flush_hook_);
  if (trace_dumped_ || trace_bus_.recorded() == 0) return;
  if (obs::trace_out_dir().empty()) return;
  dump_trace("evsnode-site" + std::to_string(config_.self.value) + "-p" +
             std::to_string(static_cast<long long>(::getpid())));
}

vsync::EndpointConfig NetRuntime::endpoint_config() const {
  vsync::EndpointConfig config;
  config.universe = config_.universe();
  return config;
}

void NetRuntime::host(runtime::Node& node) { host_group(kDefaultGroup, node); }

void NetRuntime::host_group(GroupId id, runtime::Node& node) {
  EVS_CHECK_MSG(!groups_.contains(id),
                "NetRuntime already hosts group " + std::to_string(id));
  HostedGroup hosted;
  hosted.channel = std::make_unique<GroupChannel>(transport_, id);
  hosted.trace = std::make_unique<obs::GroupTraceBus>(trace_bus_, id);
  hosted.store = std::make_unique<runtime::PrefixStore>(
      store(), "g" + std::to_string(id) + "/");
  hosted.node = &node;

  runtime::Env env;
  env.transport = hosted.channel.get();
  env.clock = &loop_;
  env.timers = &loop_;
  env.store = hosted.store.get();
  env.trace = hosted.trace.get();
  env.halt = [this, id]() {
    // Voluntary leave / teardown of this group: mirror sim::World::crash.
    // Other hosted groups keep running; the loop stops only when the
    // halting group was the last one alive.
    const auto it = groups_.find(id);
    if (it == groups_.end()) return;
    runtime::Node* halting = it->second.node;
    halting->on_crash();
    unhost_group(id);
    for (const auto& [other_id, other] : groups_)
      if (other.node->alive()) return;
    loop_.stop();
  };
  transport_.set_deliver(id, [&node](ProcessId from, const Bytes& payload) {
    if (node.alive()) node.on_message(from, payload);
  });
  groups_.emplace(id, std::move(hosted));
  node.bind(std::move(env), self());
  node.on_start();
  // on_start() runs before the loop does, so its sends (first heartbeats,
  // join probes) would otherwise sit queued until the first step's flush
  // hook; push them out now.
  transport_.flush();
}

void NetRuntime::unhost_group(GroupId id) {
  const auto it = groups_.find(id);
  if (it == groups_.end()) return;
  transport_.clear_deliver(id);
  // detach() also cancels the node's outstanding timers out of the shared
  // timer queue, so a destroyed node leaves nothing behind that captures it.
  it->second.node->detach();
  groups_.erase(it);
}

runtime::Node* NetRuntime::group_node(GroupId id) {
  const auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : it->second.node;
}

std::vector<GroupId> NetRuntime::hosted_groups() const {
  std::vector<GroupId> ids;
  ids.reserve(groups_.size());
  for (const auto& [id, hosted] : groups_) ids.push_back(id);
  return ids;
}

runtime::Node* NetRuntime::primary_node() const {
  const auto def = groups_.find(kDefaultGroup);
  if (def != groups_.end()) return def->second.node;
  return groups_.empty() ? nullptr : groups_.begin()->second.node;
}

bool NetRuntime::dump_trace(const std::string& name) {
  trace_dumped_ = true;
  refresh_metrics();  // the dump sees final counters, like a last scrape
  return obs::dump_run(trace_bus_, metrics_, name);
}

}  // namespace evs::net
