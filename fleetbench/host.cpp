// fleet_host: the benchmark's traced stand-in for evs_node.
//
// Builds a node exactly as evs_node does in multi-group mode — the same
// config file, one NetRuntime, one group object per `group` line behind a
// log::ShardRouter, a svc::SvcServer with default caps and the same metrics
// exporter — and adds three probes, each timed from this file around a
// call into a layer's public surface:
//
//   route    the SvcServer handler: ShardRouter::route until the respond
//            callback runs. One span per request, keyed by the request's
//            trace id; the load generator sets that id without the sampled
//            flag, so the node itself does no tracing work.
//   deliver  the UdpTransport deliver callback of every group, re-registered
//            to time Node::on_message (exported as bench.deliver_ns and
//            bench.deliver_calls on /metrics).
//   late     a 1 ms timer on the EventLoop recording how late it fires.
//
// Spans and lateness samples stay in memory and are written at exit
// (SIGTERM / SIGINT) as little-endian u64 records:
//
//   <prefix>.route   trace_id, start_ns, end_ns, op << 8 | status
//   <prefix>.late    fire_ns, late_ns
//
// Times are CLOCK_MONOTONIC nanoseconds, the clock the generator stamps
// requests with, so spans line up with client-side timings.
//
//   ./fleet_host --config node0.conf --spans out/site0
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/group_object.hpp"
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

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Probes {
  std::vector<std::uint64_t> route;  // 4 words per span
  std::vector<std::uint64_t> late;   // 2 words per sample
  std::uint64_t deliver_ns = 0;
  std::uint64_t deliver_calls = 0;
};

bool write_words(const std::string& path, const std::vector<std::uint64_t>& w) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(w.data(), sizeof(std::uint64_t), w.size(), f) == w.size();
  return std::fclose(f) == 0 && ok;
}

std::unique_ptr<app::GroupObjectBase> make_object(
    const net::GroupSpec& g, const app::GroupObjectConfig& oc,
    const std::vector<net::GroupSpec>& shard_specs, log::ShardRouter& router) {
  if (g.object == "kv") return std::make_unique<objects::MergeableKv>(oc);
  if (g.object == "lock") return std::make_unique<objects::LockManager>(oc);
  if (g.object == "file")
    return std::make_unique<objects::ReplicatedFile>(
        objects::ReplicatedFileConfig{oc, {}, 0});
  if (g.object != "log") return nullptr;
  std::uint32_t index = 0;
  for (std::size_t s = 0; s < shard_specs.size(); ++s)
    if (shard_specs[s].id == g.id) index = static_cast<std::uint32_t>(s);
  auto shard = std::make_unique<log::LogShard>(log::LogShardConfig{
      oc, index, static_cast<std::uint32_t>(shard_specs.size())});
  router.add_shard(index, *shard);
  return shard;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string spans_prefix;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--config") {
      config_path = argv[i + 1];
    } else if (arg == "--spans") {
      spans_prefix = argv[i + 1];
    } else {
      config_path.clear();
      break;
    }
  }
  if (config_path.empty() || spans_prefix.empty() || argc % 2 == 0) {
    std::fprintf(stderr, "usage: %s --config FILE --spans PREFIX\n", argv[0]);
    return 2;
  }

  net::NodeConfig config;
  std::string error;
  if (!net::load_node_config(config_path, config, error)) {
    std::fprintf(stderr, "%s: %s\n", config_path.c_str(), error.c_str());
    return 2;
  }
  if (config.groups.empty() || !config.self_svc_addr()) {
    std::fprintf(stderr, "fleet_host needs `group` lines and a svc line\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  // Construction opens and recovers the durable store, when configured.
  const std::uint64_t boot_start = now_ns();
  net::NetRuntime rt(config);
  const std::uint64_t boot_ns = now_ns() - boot_start;

  Probes probes;
  log::ShardRouter router;
  std::vector<std::unique_ptr<app::GroupObjectBase>> objects;
  const std::vector<net::GroupSpec> shard_specs = config.log_shards();
  for (const net::GroupSpec& g : config.groups) {
    app::GroupObjectConfig oc;
    oc.endpoint = rt.endpoint_config();
    oc.persist_state = !config.store_dir.empty();
    oc.delta_transfer = oc.persist_state;
    std::unique_ptr<app::GroupObjectBase> obj =
        make_object(g, oc, shard_specs, router);
    if (obj == nullptr) {
      std::fprintf(stderr, "group %u: object '%s' is not hostable\n", g.id,
                   g.object.c_str());
      return 2;
    }
    router.add_group(g.id, *obj);
    objects.push_back(std::move(obj));
    app::GroupObjectBase& node = *objects.back();
    rt.host_group(g.id, node);
    // Replaces the runtime's own deliver entry for this group with a timed
    // copy of it.
    rt.transport().set_deliver(
        g.id, [&node, &probes](ProcessId from, const Bytes& payload) {
          const std::uint64_t start = now_ns();
          if (node.alive()) node.on_message(from, payload);
          probes.deliver_ns += now_ns() - start;
          ++probes.deliver_calls;
        });
  }

  const net::PeerAddr svc_addr = *config.self_svc_addr();
  svc::SvcServer server(rt.loop(), svc_addr.ip, svc_addr.port);
  server.set_trace(&rt.trace_bus(), rt.self());
  server.set_handler([&router, &probes](runtime::SvcRequest req,
                                        runtime::SvcRespondFn respond) {
    const std::uint64_t trace = req.trace_id;
    const std::uint64_t op = static_cast<std::uint64_t>(req.op);
    const std::uint64_t start = now_ns();
    router.route(std::move(req),
                 [&probes, trace, op, start,
                  respond = std::move(respond)](runtime::SvcResponse resp) {
                   const std::uint64_t end = now_ns();
                   probes.route.insert(
                       probes.route.end(),
                       {trace, start, end,
                        op << 8 | static_cast<std::uint64_t>(resp.status)});
                   respond(std::move(resp));
                 });
  });

  rt.set_metrics_exporter([&](obs::MetricsRegistry& registry) {
    objects.front()->export_metrics(registry, "node");
    for (std::size_t i = 0; i < objects.size(); ++i)
      objects[i]->export_metrics(
          registry, "node.g" + std::to_string(config.groups[i].id));
    server.export_metrics(registry, "svc");
    registry.counter("bench.deliver_ns").set(probes.deliver_ns);
    registry.counter("bench.deliver_calls").set(probes.deliver_calls);
  });

  // Timer-lateness probe: re-armed from its own callback, so each sample
  // is how late one 1 ms timer fired.
  constexpr SimDuration kProbeInterval = kMillisecond;
  std::uint64_t probe_due = now_ns() + kProbeInterval * 1'000;
  std::function<void()> probe = [&]() {
    const std::uint64_t fired = now_ns();
    probes.late.insert(probes.late.end(),
                       {fired, fired > probe_due ? fired - probe_due : 0});
    probe_due = fired + kProbeInterval * 1'000;
    rt.loop().set_timer(kProbeInterval, probe);
  };
  rt.loop().set_timer(kProbeInterval, probe);

  g_loop = &rt.loop();
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("up site=%u port=%u universe=%zu incarnation=%u\n",
              config.self.value, rt.transport().bound_port(),
              config.peers.size(), rt.incarnation());
  std::printf("boot site=%u runtime_us=%llu\n", config.self.value,
              static_cast<unsigned long long>(boot_ns / 1'000));
  std::printf("svc site=%u port=%u\n", config.self.value, server.bound_port());
  rt.run();

  const bool ok = write_words(spans_prefix + ".route", probes.route) &&
                  write_words(spans_prefix + ".late", probes.late);
  std::printf("spans route=%zu late=%zu\n", probes.route.size() / 4,
              probes.late.size() / 2);
  return ok ? 0 : 1;
}
