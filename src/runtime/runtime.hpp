// Runtime abstraction: the seam between the protocol stack and the world.
//
// Every layer above the substrate (heartbeat detector, view-synchronous
// endpoint, enriched-view endpoint, application objects) is written against
// the four small interfaces in this header — Transport, Clock,
// TimerService, StableStore — plus the Node base class that bundles them.
// Two runtimes implement the interfaces:
//
//   * sim::World/sim::Network/sim::Scheduler — the deterministic
//     discrete-event simulator (sim/world.hpp hosts a Node via
//     sim::NodeHost, so `world.spawn<core::EvsEndpoint>(...)` keeps
//     working verbatim);
//   * net::EventLoop/net::UdpTransport — a real single-threaded epoll
//     runtime speaking UDP (src/net/), hosted by tools/evs_node.
//
// The contract both runtimes honour:
//   - single-threaded: every callback (deliver, timer, on_start) runs on
//     the runtime's one event thread, never concurrently;
//   - asynchronous, lossy transport: send* may silently drop (partition,
//     loss, unknown peer) — the protocol already assumes this;
//   - time is a monotonic count of microseconds from an arbitrary origin
//     (simulation start / process start), read only through Clock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"
#include "runtime/svc.hpp"

namespace evs::runtime {

/// The only source of time for protocol code. Monotonic microseconds; the
/// origin is runtime-defined (simulation start or process start), so only
/// differences are meaningful — exactly how SimTime was already used.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime now() const = 0;
};

using TimerId = std::uint64_t;

/// One-shot timers. Callbacks run on the runtime's event thread.
class TimerService {
 public:
  virtual ~TimerService() = default;
  virtual TimerId set_timer(SimDuration delay, std::function<void()> fn) = 0;
  /// No-op if the timer already fired or was cancelled.
  virtual void cancel_timer(TimerId id) = 0;
};

/// Unreliable point-to-point message passing with encode-once fan-out.
/// Delivery is runtime-wired: the host registers the node's on_message as
/// the deliver-callback when it binds the node (see Node::bind).
class Transport {
 public:
  /// Deliver-callback signature; `payload` is borrowed for the call.
  using DeliverFn = std::function<void(ProcessId from, const Bytes& payload)>;

  virtual ~Transport() = default;

  /// Sends to one addressed incarnation; stale incarnations never receive.
  virtual void send(ProcessId to, Bytes payload) = 0;

  /// Sends to whatever incarnation lives at `site` on arrival (host:port
  /// addressing — used for discovery traffic such as heartbeats).
  virtual void send_to_site(SiteId site, Bytes payload) = 0;

  /// Fan-out sharing one encoded buffer across all recipients: one encode,
  /// n sends, zero payload copies. Semantically identical to calling
  /// send() once per recipient.
  virtual void send_multi(const std::vector<ProcessId>& recipients,
                          SharedBytes payload) = 0;

  /// Sets the propagated trace context stamped onto subsequently enqueued
  /// frames (net runtimes carry it in the datagram envelope); 0 clears
  /// it. Observability metadata only — delivery never depends on it, and
  /// the default (and the simulator) ignores it entirely.
  virtual void set_trace_context(std::uint64_t trace) { (void)trace; }
};

/// Per-site permanent storage (the paper's "permanent part of the local
/// state", Section 3): survives the crash of an incarnation.
class StableStore {
 public:
  virtual ~StableStore() = default;
  /// Atomically replaces the value under `key`.
  virtual void put(const std::string& key, Bytes value) = 0;
  virtual std::optional<Bytes> get(const std::string& key) const = 0;
  virtual void erase(const std::string& key) = 0;
  virtual bool contains(const std::string& key) const = 0;
  /// Erases every key that starts with `prefix` as one atomic step (an
  /// op log drops the records behind a snapshot this way).
  virtual void erase_prefix(const std::string& prefix) = 0;
};

/// Erases the keys of `entries` that start with `prefix`; returns how many.
std::size_t erase_prefix_in(std::map<std::string, Bytes>& entries,
                            const std::string& prefix);

/// In-memory StableStore with cost counters; the simulator's per-site
/// store and the default store of the net runtime (durable file-backed
/// storage can slot in behind the same interface later).
class MemoryStore : public StableStore {
 public:
  void put(const std::string& key, Bytes value) override;
  std::optional<Bytes> get(const std::string& key) const override;
  void erase(const std::string& key) override;
  bool contains(const std::string& key) const override;
  void erase_prefix(const std::string& prefix) override;

  std::size_t size() const { return entries_.size(); }
  /// Total payload bytes held — used by benches to report storage cost.
  std::size_t bytes() const;
  /// Number of put() calls — a proxy for synchronous-write cost.
  std::uint64_t writes() const { return writes_; }

 private:
  std::map<std::string, Bytes> entries_;
  std::uint64_t writes_ = 0;
};

/// View of another store under a key prefix — the per-group namespace a
/// multi-group host gives each instance, so two groups persisting the
/// same logical key (epoch, snapshot) in the site's one store never
/// collide. The inner store must outlive the view.
class PrefixStore final : public StableStore {
 public:
  PrefixStore(StableStore& inner, std::string prefix)
      : inner_(inner), prefix_(std::move(prefix)) {}

  void put(const std::string& key, Bytes value) override {
    inner_.put(prefix_ + key, std::move(value));
  }
  std::optional<Bytes> get(const std::string& key) const override {
    return inner_.get(prefix_ + key);
  }
  void erase(const std::string& key) override { inner_.erase(prefix_ + key); }
  bool contains(const std::string& key) const override {
    return inner_.contains(prefix_ + key);
  }
  void erase_prefix(const std::string& prefix) override {
    inner_.erase_prefix(prefix_ + prefix);
  }

 private:
  StableStore& inner_;
  std::string prefix_;
};

/// Everything a Node needs from its runtime, as non-owning pointers; the
/// host guarantees they outlive the node's callbacks.
struct Env {
  Transport* transport = nullptr;
  Clock* clock = nullptr;
  TimerService* timers = nullptr;
  StableStore* store = nullptr;
  /// Optional structured-event sink (may be null; hooks must check).
  obs::TraceBus* trace = nullptr;
  /// Tears down this incarnation: the simulator crashes the actor, the
  /// net runtime stops its event loop. Used by voluntary leave().
  std::function<void()> halt;
};

/// Base class for every protocol endpoint. Mirrors the surface sim::Actor
/// used to provide so the stack ports without behavioural change; all
/// facilities resolve through the injected Env.
class Node {
 public:
  virtual ~Node();

  ProcessId id() const { return id_; }
  bool alive() const { return alive_; }

  /// The runtime's trace bus, or nullptr. Hooks should test
  /// `trace() != nullptr && trace()->enabled()` before building an event.
  obs::TraceBus* trace() const { return env_.trace; }

  /// Current time from the injected Clock (usable from const members).
  SimTime now() const;

  /// Called once after bind(), at the host's start event.
  virtual void on_start() {}

  /// One JSON object describing this node's protocol state, served by the
  /// net runtime's admin plane as part of GET /status (net/admin.hpp).
  /// Endpoint classes override this to report view id, mode, structure
  /// and counters; the base reports nothing.
  virtual std::string admin_status_json() const { return "{}"; }

  /// Handles an admin-plane control command ("join", "leave", "merge-all",
  /// "merge"; `arg` carries the command's argument text, e.g. the sv-set
  /// id list of a "merge"). Runs on the runtime's event thread like any
  /// other callback. Returns true when the command was accepted; on
  /// rejection returns false and sets `error`. The base class supports no
  /// commands — endpoint classes override this to expose their
  /// application-control surface (the paper's SVSetMerge / SubviewMerge /
  /// leave calls) to the host.
  virtual bool admin_command(const std::string& name, const std::string& arg,
                             std::string& error);

  /// Handles one external-client request from the front-door service
  /// (src/svc/, runtime/svc.hpp). Runs on the runtime's event thread.
  /// The node must call `respond` exactly once — immediately for reads
  /// and rejections, deferred for ordered writes (when the operation is
  /// applied at this replica or an e-view change fences it). The base
  /// class hosts no servable object and answers Unsupported; group
  /// objects override this with epoch-checked dispatch
  /// (app::GroupObjectBase::svc_request).
  virtual void svc_request(SvcRequest req, SvcRespondFn respond);

  /// Called for every message delivered to this incarnation while alive.
  virtual void on_message(ProcessId from, const Bytes& payload) = 0;

  /// Called when the incarnation is torn down, before detach().
  virtual void on_crash() {}

  // ----- host-side wiring (sim::NodeHost / net::NetRuntime) -----------

  /// Injects the runtime services and this incarnation's identity. Must
  /// happen before on_start(); the host also routes the transport's
  /// deliver-callback to on_message().
  void bind(Env env, ProcessId id);

  /// Marks the incarnation dead: outstanding timers are cancelled out of
  /// the runtime's timer queue (they capture `this`; a multi-group host
  /// destroys nodes while the shared queue lives on), sends become no-ops.
  void detach();

 protected:
  void send(ProcessId to, Bytes payload);
  void send_to_site(SiteId site, Bytes payload);
  /// Encode-once fan-out: every recipient's delivery shares one buffer.
  void send_multi(const std::vector<ProcessId>& recipients, SharedBytes payload);

  /// Schedules a callback that is silently dropped if this incarnation is
  /// no longer alive when it fires.
  TimerId set_timer(SimDuration delay, std::function<void()> fn);
  void cancel_timer(TimerId id);

  /// This site's permanent storage (survives crashes).
  StableStore& store();

  /// Announces that this incarnation is done (crash/stop via the host).
  void halt();

  const Env& env() const { return env_; }

 private:
  /// Cancels every timer this node still has registered with the shared
  /// TimerService. Called by detach() and the destructor so a torn-down
  /// group instance leaves nothing behind in the host's timer queue.
  void cancel_all_timers();

  Env env_;
  ProcessId id_{};
  bool alive_ = false;
  /// Ids of timers set but not yet fired/cancelled; the set_timer wrapper
  /// erases on fire, cancel_timer on cancel.
  std::unordered_set<TimerId> live_timers_;
};

}  // namespace evs::runtime
