// Real-time runtime, part 5: the bundle that hosts protocol nodes.
//
// NetRuntime is the net-side counterpart of sim::World for a single
// process: it owns the event loop (Clock + TimerService), the UDP
// transport, the site's stable store and the observability sinks, wires
// them into runtime::Envs, and hosts one or more runtime::Nodes — the
// same vsync/evs endpoint classes the simulator spawns, byte-for-byte the
// same protocol code.
//
//   net::NodeConfig cfg = ...;             // static peer book
//   net::NetRuntime rt(cfg);
//   core::EvsEndpoint ep(rt.endpoint_config());
//   rt.host(ep);                           // bind + on_start (group 0)
//   rt.run();                              // until stop / halt / signal
//
// A process hosting several group instances (config `group` lines) calls
// host_group(id, node) once per instance: every node shares the one event
// loop, timer queue, socket and trace ring, but sees a per-group
// Transport (frames stamped with its GroupId and demuxed back on
// receive), a per-group trace facade (events labelled with its group) and
// a per-group StableStore namespace. unhost_group() tears one instance
// down without disturbing the rest: its deliver entry leaves the demux
// table and detach() cancels its timers out of the shared timer queue.
//
// EVS_TRACE_OUT works identically to sim runs: the trace bus records the
// same typed events (stamped with loop-monotonic µs) and dump_trace()
// writes the same three artifacts tools/trace_check consumes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/admin.hpp"
#include "net/config.hpp"
#include "net/event_loop.hpp"
#include "net/udp_transport.hpp"
#include "obs/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "store/wal_store.hpp"
#include "vsync/endpoint.hpp"

namespace evs::net {

class NetRuntime {
 public:
  explicit NetRuntime(NodeConfig config);
  ~NetRuntime();
  NetRuntime(const NetRuntime&) = delete;
  NetRuntime& operator=(const NetRuntime&) = delete;

  EventLoop& loop() { return loop_; }
  UdpTransport& transport() { return transport_; }
  /// The site's stable store: the durable WAL store (src/store/) when the
  /// config names a `store` directory, the volatile MemoryStore
  /// otherwise. Both sit behind the same runtime::StableStore seam the
  /// hosted nodes persist through.
  runtime::StableStore& store() {
    if (wal_store_ != nullptr) return *wal_store_;
    return memory_store_;
  }
  /// The durable store, or nullptr when running volatile.
  store::WalStore* wal_store() { return wal_store_.get(); }
  /// The incarnation this runtime actually runs as: the config's value,
  /// or the durably bumped one when a store directory shows a previous
  /// incarnation already lived at this site.
  std::uint32_t incarnation() const { return config_.incarnation; }
  obs::TraceBus& trace_bus() { return trace_bus_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// The online oracle checker fed from the trace bus's observer tap: as
  /// long as tracing is enabled, every recorded event is checked against
  /// the incremental safety oracles and violations surface in /health,
  /// /status's "health" flag and the obs.oracle_violations counter.
  const obs::LiveChecker& checker() const { return checker_; }

  ProcessId self() const { return transport_.self(); }

  /// The admin plane, created iff the config has an `admin` line for
  /// self; nullptr otherwise. Already wired to /status (runtime identity
  /// + hosted node's admin_status_json()), /metrics (refreshed at scrape
  /// time), /trace, and — when the config carries an `admin_token` — the
  /// POST control side (/join, /leave, /merge-all, /merge), routed to the
  /// hosted node's admin_command() and recorded as
  /// EventKind::AdminCommand trace events.
  AdminServer* admin() { return admin_.get(); }

  /// Extra per-node metrics exported on every /metrics scrape, after the
  /// runtime's own (transport + admin) exports. evs_node installs the
  /// endpoint's export_metrics here.
  void set_metrics_exporter(std::function<void(obs::MetricsRegistry&)> fn) {
    metrics_exporter_ = std::move(fn);
  }

  /// Runs every registered exporter into metrics() — the same refresh the
  /// admin plane performs before serving /metrics.
  void refresh_metrics();

  /// A vsync::EndpointConfig whose universe is this runtime's peer book;
  /// detector/protocol timings keep their defaults (already real-time
  /// millisecond scales).
  vsync::EndpointConfig endpoint_config() const;

  /// Binds `node` to this runtime's services as the default group (0) and
  /// starts it. The node must outlive run(). A node that halt()s
  /// (voluntary leave) gets its on_crash() hook; the loop stops when the
  /// last hosted group halts — the process-level analogue of
  /// sim::World::crash.
  void host(runtime::Node& node);

  /// Binds `node` as group instance `id` over the shared loop/socket:
  /// sends go out stamped with the group id, receives demux back to it,
  /// trace events carry the label, and persisted keys live under the
  /// "g<id>/" namespace of the site store. One node per group id; the
  /// node must outlive its hosting.
  void host_group(GroupId id, runtime::Node& node);

  /// Tears group `id` down without touching other groups: removes its
  /// deliver entry from the demux table, detaches the node (cancelling
  /// its timers out of the shared timer queue) and drops the per-group wiring.
  /// The node object itself stays owned by the caller. No-op when the
  /// group is not hosted.
  void unhost_group(GroupId id);

  /// The node hosted as group `id`, or nullptr.
  runtime::Node* group_node(GroupId id);

  /// Ids of currently hosted groups, ascending.
  std::vector<GroupId> hosted_groups() const;

  /// Runs the event loop until stop()/halt/request_stop.
  void run() { loop_.run(); }

  /// Dumps trace + metrics under `name` via obs::dump_run (no-op without
  /// EVS_TRACE_OUT) and suppresses the destructor's auto-dump.
  bool dump_trace(const std::string& name);

 private:
  /// Per-group wiring owned by the runtime; the node itself is not owned.
  struct HostedGroup {
    std::unique_ptr<GroupChannel> channel;
    std::unique_ptr<obs::GroupTraceBus> trace;
    std::unique_ptr<runtime::PrefixStore> store;
    runtime::Node* node = nullptr;
  };

  /// The default-group node if hosted (legacy admin/status surface), else
  /// the lowest hosted group's node, else nullptr.
  runtime::Node* primary_node() const;

  /// Opens the durable store (when configured), recovers + bumps the
  /// incarnation from it, and registers the store's group-commit flush
  /// hook — all before the transport exists, so no frame can leave with
  /// a reused incarnation or ahead of its batch's sync. Returns the
  /// (possibly adjusted) config the transport binds with.
  NodeConfig boot_config();

  NodeConfig config_;
  EventLoop loop_;
  /// Durable store; non-null iff config_.store_dir is set. Declared
  /// before transport_: recovery and the incarnation bump must precede
  /// binding, and destruction must outlast the transport's final flush.
  std::unique_ptr<store::WalStore> wal_store_;
  runtime::MemoryStore memory_store_;
  EventLoop::FlushHookId store_flush_hook_ = 0;
  UdpTransport transport_;
  obs::TraceBus trace_bus_;
  obs::LiveChecker checker_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<AdminServer> admin_;
  std::function<void(obs::MetricsRegistry&)> metrics_exporter_;
  std::map<GroupId, HostedGroup> groups_;
  bool trace_dumped_ = false;
};

}  // namespace evs::net
