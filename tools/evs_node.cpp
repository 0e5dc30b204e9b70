// evs_node: one enriched-view-synchrony group member on real UDP sockets.
//
// The same core::EvsEndpoint the simulator spawns, hosted by the
// net::NetRuntime (epoll loop + UDP messenger) instead of sim::World.
// Start one process per site of a static peer config and they converge to
// a common view, totally order their multicasts, ride out kills and
// SIGSTOP partitions, and re-merge — the quickstart workload, outside the
// simulator.
//
//   ./evs_node --config node0.conf --multicast 100 --merge-all
//   ./evs_node --config node0.conf --object kv      # serve external clients
//
// `--object kv|lock|file` hosts a group object (MergeableKv, LockManager,
// ReplicatedFile) instead of a bare endpoint; combined with a `svc <self>
// <ip:port>` config line the node serves the external-client front door
// there (svc::SvcServer routing into the object's view-fenced
// svc_request). Plain mode with a svc line also serves the port, but
// every request is answered Unsupported — the bare endpoint hosts no
// object.
//
// A config with `group <id> <object>` lines hosts one group instance per
// line over the same socket/loop/timer queue (NetRuntime::host_group) —
// the multi-group runtime. Log-object groups form the shards of the
// sharded shared log (src/log/): shard index = rank of the group id among
// the log groups, G = their count. The front door then routes through a
// log::ShardRouter: per-group for ordinary ops, key%G / position%G for
// log ops, fan-out for tail/seal. Multi-group mode is incompatible with
// --object and --multicast; view lines gain a group label:
//   view group=<g> epoch=<e> coordinator=<site> size=<n> members=...
//
// Config file format: see src/net/config.hpp. Every status line on stdout
// is machine-parseable (the loopback ctests grep them):
//   up site=<n> port=<p> universe=<k> incarnation=<i>
//   admin site=<n> port=<p>          (iff the config has `admin <self> ...`)
//   svc site=<n> port=<p>            (iff the config has `svc <self> ...`)
//   view epoch=<e> coordinator=<site> size=<n> members=<s0,s1,...>
//   deliver n=<total> from=<site>
//   sent n=<total>
//   summary sent=<n> delivered=<n> views=<n> epoch=<e> size=<n>
//
// EVS_TRACE_OUT=<dir> dumps the same three run artifacts a sim run dumps;
// replay the .trace.jsonl through ./tools/trace_check.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/group_object.hpp"
#include "evs/endpoint.hpp"
#include "log/log_shard.hpp"
#include "log/shard_router.hpp"
#include "net/config.hpp"
#include "net/runtime.hpp"
#include "objects/lock_manager.hpp"
#include "objects/mergeable_kv.hpp"
#include "objects/replicated_file.hpp"
#include "svc/server.hpp"

using namespace evs;

namespace {

net::EventLoop* g_loop = nullptr;

void on_signal(int) {
  if (g_loop != nullptr) g_loop->request_stop();
}

struct Options {
  std::string config_path;
  std::string trace_name;
  std::uint64_t duration_ms = 0;   // 0 = run until a signal arrives
  std::uint64_t multicast = 0;     // messages to send once the view is full
  std::uint64_t payload_bytes = 32;
  std::uint64_t send_interval_ms = 20;
  /// >0: rewrite the trace artifacts every N ms, so a SIGKILLed node still
  /// leaves a (slightly stale) trace behind for post-mortem checking.
  std::uint64_t trace_flush_ms = 0;
  bool merge_all = false;
  /// Hosted group object: "" / "none" (bare endpoint), "kv", "lock",
  /// "file".
  std::string object_kind;
  // Front-door cap overrides (0 = SvcServerConfig default); tests force
  // tiny caps to exercise shed-with-retry-after.
  std::uint64_t svc_max_conns = 0;
  std::uint64_t svc_inflight = 0;
  std::uint64_t svc_queue = 0;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config FILE [--duration-ms N] [--multicast N]\n"
               "          [--payload-bytes N] [--send-interval-ms N]\n"
               "          [--merge-all] [--trace-name NAME]\n"
               "          [--object none|kv|lock|file]\n"
               "          [--svc-max-conns N] [--svc-inflight N]\n"
               "          [--svc-queue N]\n",
               argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

std::string members_csv(const std::vector<ProcessId>& members) {
  std::string out;
  for (const ProcessId& m : members) {
    if (!out.empty()) out += ",";
    out += std::to_string(m.site.value);
  }
  return out;
}

/// The `view` status line; `label` ("group=<g> " in multi-group mode, else
/// empty) follows the keyword.
void print_view(const std::string& label, const core::EView& eview) {
  std::printf("view %sepoch=%llu coordinator=%u size=%zu members=%s\n",
              label.c_str(),
              static_cast<unsigned long long>(eview.view.id.epoch),
              eview.view.id.coordinator.site.value, eview.view.size(),
              members_csv(eview.view.members).c_str());
}

/// The hosted group object of `kind` ("kv", "lock", "file", or "log" when
/// `shard` gives its index and the shard count); nullptr for any other
/// kind. Behind a durable store, objects survive their process: they
/// persist state and rejoin via bounded-delta transfer after a restart.
std::unique_ptr<app::GroupObjectBase> make_object(
    const std::string& kind, net::NetRuntime& rt,
    const net::NodeConfig& config,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> shard = {}) {
  app::GroupObjectConfig oc;
  oc.endpoint = rt.endpoint_config();
  oc.persist_state = !config.store_dir.empty();
  oc.delta_transfer = oc.persist_state;
  if (kind == "kv") return std::make_unique<objects::MergeableKv>(oc);
  if (kind == "lock") return std::make_unique<objects::LockManager>(oc);
  if (kind == "file") {
    return std::make_unique<objects::ReplicatedFile>(
        objects::ReplicatedFileConfig{oc, {}, 0});
  }
  if (kind == "log" && shard) {
    return std::make_unique<log::LogShard>(
        log::LogShardConfig{oc, shard->first, shard->second});
  }
  return nullptr;
}

/// Prints a `view` line for each view change `object` installs, counting
/// them in `views`.
void print_views(app::GroupObjectBase& object, std::string label,
                 std::uint64_t& views) {
  object.set_view_observer(
      [label = std::move(label), &views](const core::EView& eview) {
        if (eview.ev_seq != 0) return;
        ++views;
        print_view(label, eview);
      });
}

/// Prints status lines and drives the multicast workload.
class NodeDriver : public core::EvsDelegate {
 public:
  NodeDriver(net::NetRuntime& rt, core::EvsEndpoint& ep, Options options)
      : rt_(rt), ep_(ep), options_(std::move(options)) {
    ep.set_evs_delegate(this);
  }

  void on_eview(const core::EView& eview) override {
    if (eview.ev_seq != 0) return;  // view changes only, not sv-set merges
    ++views_installed_;
    print_view("", eview);
    if (eview.view.size() == rt_.transport().config().peers.size())
      on_full_view();
  }

  void on_app_deliver(ProcessId sender, const Bytes&) override {
    ++delivered_;
    std::printf("deliver n=%llu from=%u\n",
                static_cast<unsigned long long>(delivered_),
                sender.site.value);
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t views_installed() const { return views_installed_; }

 private:
  void on_full_view() {
    if (options_.merge_all && !merge_requested_) {
      merge_requested_ = true;
      ep_.request_merge_all();
    }
    if (options_.multicast > 0 && !sending_) {
      sending_ = true;
      schedule_send();
    }
  }

  void schedule_send() {
    if (sent_ >= options_.multicast) return;
    rt_.loop().set_timer(options_.send_interval_ms * kMillisecond, [this]() {
      Bytes payload = to_bytes("m" + std::to_string(ep_.id().site.value) +
                               "-" + std::to_string(sent_));
      payload.resize(options_.payload_bytes, 0);
      ep_.app_multicast(std::move(payload));
      ++sent_;
      std::printf("sent n=%llu\n", static_cast<unsigned long long>(sent_));
      schedule_send();
    });
  }

  net::NetRuntime& rt_;
  core::EvsEndpoint& ep_;
  Options options_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t views_installed_ = 0;
  bool sending_ = false;
  bool merge_requested_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (arg == "--config") {
      const char* v = value();
      ok = v != nullptr;
      if (ok) options.config_path = v;
    } else if (arg == "--trace-name") {
      const char* v = value();
      ok = v != nullptr;
      if (ok) options.trace_name = v;
    } else if (arg == "--duration-ms") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.duration_ms);
    } else if (arg == "--multicast") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.multicast);
    } else if (arg == "--payload-bytes") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.payload_bytes);
    } else if (arg == "--send-interval-ms") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.send_interval_ms);
    } else if (arg == "--trace-flush-ms") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.trace_flush_ms);
    } else if (arg == "--object") {
      const char* v = value();
      ok = v != nullptr;
      if (ok) options.object_kind = v;
    } else if (arg == "--svc-max-conns") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.svc_max_conns);
    } else if (arg == "--svc-inflight") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.svc_inflight);
    } else if (arg == "--svc-queue") {
      const char* v = value();
      ok = v != nullptr && parse_u64(v, options.svc_queue);
    } else if (arg == "--merge-all") {
      options.merge_all = true;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  if (options.config_path.empty()) return usage(argv[0]);

  net::NodeConfig config;
  std::string error;
  if (!net::load_node_config(options.config_path, config, error)) {
    std::fprintf(stderr, "%s: %s\n", options.config_path.c_str(),
                 error.c_str());
    return 2;
  }

  // Status lines must reach a parent's pipe promptly.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  net::NetRuntime rt(config);

  // Hosted node: a bare EvsEndpoint (driven by NodeDriver) or a group
  // object serving external clients. A group object *is* an EvsEndpoint,
  // but it owns the EvsDelegate slot itself, so view lines come from its
  // view-observer hook instead of a NodeDriver. With config `group`
  // lines, one instance per line is hosted instead (multi-group mode),
  // `endpoint` pointing at the lowest group's instance for the summary.
  std::unique_ptr<core::EvsEndpoint> plain;
  std::unique_ptr<app::GroupObjectBase> object;
  std::unique_ptr<NodeDriver> driver;
  core::EvsEndpoint* endpoint = nullptr;
  std::uint64_t object_views = 0;

  std::vector<std::unique_ptr<app::GroupObjectBase>> group_objects;
  log::ShardRouter router;
  const bool multi_group = !config.groups.empty();

  if (multi_group) {
    if (!options.object_kind.empty() || options.multicast > 0) {
      std::fprintf(stderr, "config `group` lines are incompatible with "
                           "--object and --multicast\n");
      return 2;
    }
    const std::vector<net::GroupSpec> shard_specs = config.log_shards();
    for (const net::GroupSpec& g : config.groups) {
      std::uint32_t index = 0;
      for (std::size_t s = 0; s < shard_specs.size(); ++s)
        if (shard_specs[s].id == g.id) index = static_cast<std::uint32_t>(s);
      std::unique_ptr<app::GroupObjectBase> obj = make_object(
          g.object, rt, config,
          std::pair{index, static_cast<std::uint32_t>(shard_specs.size())});
      // "none": groups exist to serve; a bare member adds none.
      if (obj == nullptr) {
        std::fprintf(stderr, "group %u: object 'none' is not hostable in "
                             "multi-group mode\n", g.id);
        return 2;
      }
      if (g.object == "log") router.add_shard(index, *obj);
      router.add_group(g.id, *obj);
      print_views(*obj, "group=" + std::to_string(g.id) + " ", object_views);
      group_objects.push_back(std::move(obj));
      rt.host_group(g.id, *group_objects.back());
      if (endpoint == nullptr) endpoint = group_objects.front().get();
    }
    std::printf("groups n=%zu shards=%zu\n", group_objects.size(),
                router.shard_count());
  } else if (options.object_kind.empty() || options.object_kind == "none") {
    plain = std::make_unique<core::EvsEndpoint>(rt.endpoint_config());
    driver = std::make_unique<NodeDriver>(rt, *plain, options);
    endpoint = plain.get();
  } else {
    if (options.multicast > 0) {
      std::fprintf(stderr, "--multicast drives a bare endpoint; it cannot "
                           "be combined with --object\n");
      return 2;
    }
    object = make_object(options.object_kind, rt, config);
    if (object == nullptr) return usage(argv[0]);
    endpoint = object.get();
    print_views(*object, "", object_views);
  }
  if (!multi_group) rt.host(*endpoint);

  // The external-client front door, iff the config names a svc endpoint
  // for self. Owned here (not by NetRuntime) — the svc layer sits above
  // net, and routing needs the hosted node, which the tool owns too.
  std::unique_ptr<svc::SvcServer> svc_server;
  if (const auto svc_addr = config.self_svc_addr()) {
    svc::SvcServerConfig sc;
    if (options.svc_max_conns > 0) sc.max_connections = options.svc_max_conns;
    if (options.svc_inflight > 0)
      sc.max_inflight_per_conn = options.svc_inflight;
    if (options.svc_queue > 0) sc.max_pending = options.svc_queue;
    svc_server = std::make_unique<svc::SvcServer>(rt.loop(), svc_addr->ip,
                                                  svc_addr->port, sc);
    // Request lifecycle events (Admitted/Replied) land in the runtime's
    // shared ring under the hosted node's identity — the svc server has no
    // protocol identity of its own.
    svc_server->set_trace(&rt.trace_bus(), rt.self());
    if (multi_group) {
      svc_server->set_handler(
          [&router](runtime::SvcRequest req, runtime::SvcRespondFn respond) {
            router.route(std::move(req), std::move(respond));
          });
    } else {
      runtime::Node* node = endpoint;
      svc_server->set_handler(
          [node](runtime::SvcRequest req, runtime::SvcRespondFn respond) {
            node->svc_request(std::move(req), std::move(respond));
          });
    }
  }

  rt.set_metrics_exporter([&endpoint, &object, &svc_server, &config,
                           &group_objects](obs::MetricsRegistry& registry) {
    if (!group_objects.empty()) {
      // Aggregate view under "node" (the primary group) plus one labelled
      // slice per hosted group, mirroring the transport's per-group wire
      // counters.
      endpoint->export_metrics(registry, "node");
      for (std::size_t i = 0; i < group_objects.size(); ++i)
        group_objects[i]->export_metrics(
            registry, "node.g" + std::to_string(config.groups[i].id));
    } else if (object != nullptr) {
      object->export_metrics(registry, "node");
    } else {
      endpoint->export_metrics(registry, "node");
    }
    if (svc_server != nullptr) svc_server->export_metrics(registry, "svc");
    // Store counters come from NetRuntime::refresh_metrics (WAL or
    // MemoryStore variants) before this exporter runs.
  });

  g_loop = &rt.loop();
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("up site=%u port=%u universe=%zu incarnation=%u\n",
              config.self.value, rt.transport().bound_port(),
              config.peers.size(), rt.incarnation());
  if (rt.admin() != nullptr)
    std::printf("admin site=%u port=%u\n", config.self.value,
                rt.admin()->bound_port());
  if (svc_server != nullptr)
    std::printf("svc site=%u port=%u\n", config.self.value,
                svc_server->bound_port());

  const std::string trace_name =
      options.trace_name.empty()
          ? "evs_node-site" + std::to_string(config.self.value)
          : options.trace_name;
  // Self-rearming flush timer; the function object lives in this frame
  // (a shared_ptr capturing itself would be a reference cycle).
  std::function<void()> trace_flush;
  if (options.trace_flush_ms > 0) {
    const SimDuration interval = options.trace_flush_ms * kMillisecond;
    trace_flush = [&rt, &trace_name, &trace_flush, interval]() {
      rt.dump_trace(trace_name);
      rt.loop().set_timer(interval, trace_flush);
    };
    rt.loop().set_timer(interval, trace_flush);
  }

  if (options.duration_ms > 0) {
    rt.loop().set_timer(options.duration_ms * kMillisecond,
                        [&rt]() { rt.loop().stop(); });
  }
  rt.run();

  rt.dump_trace(trace_name);  // refreshes every metrics exporter first

  const gms::View& view = endpoint->view();
  const std::uint64_t views =
      driver != nullptr ? driver->views_installed() : object_views;
  std::printf("summary sent=%llu delivered=%llu views=%llu epoch=%llu "
              "size=%zu\n",
              static_cast<unsigned long long>(driver ? driver->sent() : 0),
              static_cast<unsigned long long>(driver ? driver->delivered() : 0),
              static_cast<unsigned long long>(views),
              static_cast<unsigned long long>(view.id.epoch), view.size());
  return 0;
}
