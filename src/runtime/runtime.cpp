#include "runtime/runtime.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"

namespace evs::runtime {

void MemoryStore::put(const std::string& key, Bytes value) {
  ++writes_;
  entries_[key] = std::move(value);
}

std::optional<Bytes> MemoryStore::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void MemoryStore::erase(const std::string& key) { entries_.erase(key); }

bool MemoryStore::contains(const std::string& key) const {
  return entries_.contains(key);
}

void MemoryStore::erase_prefix(const std::string& prefix) {
  erase_prefix_in(entries_, prefix);
}

std::size_t erase_prefix_in(std::map<std::string, Bytes>& entries,
                            const std::string& prefix) {
  auto it = entries.lower_bound(prefix);
  std::size_t erased = 0;
  while (it != entries.end() && it->first.starts_with(prefix)) {
    it = entries.erase(it);
    ++erased;
  }
  return erased;
}

std::size_t MemoryStore::bytes() const {
  std::size_t total = 0;
  for (const auto& [key, value] : entries_) total += value.size();
  return total;
}

void Node::bind(Env env, ProcessId id) {
  EVS_CHECK(env.transport != nullptr);
  EVS_CHECK(env.clock != nullptr);
  EVS_CHECK(env.timers != nullptr);
  env_ = std::move(env);
  id_ = id;
  alive_ = true;
}

bool Node::admin_command(const std::string& name, const std::string&,
                         std::string& error) {
  error = "node does not support command '" + name + "'";
  return false;
}

void Node::svc_request(SvcRequest, SvcRespondFn respond) {
  EVS_CHECK(respond != nullptr);
  respond(SvcResponse::unsupported());
}

const char* to_string(SvcStatus status) {
  switch (status) {
    case SvcStatus::Ok: return "ok";
    case SvcStatus::Conflict: return "conflict";
    case SvcStatus::InvalidEpoch: return "invalid_epoch";
    case SvcStatus::Unavailable: return "unavailable";
    case SvcStatus::Unsupported: return "unsupported";
    case SvcStatus::NotLeader: return "not_leader";
  }
  return "unknown";
}

const char* to_string(SvcOp op) {
  switch (op) {
    case SvcOp::Get: return "get";
    case SvcOp::Put: return "put";
    case SvcOp::Lock: return "lock";
    case SvcOp::Unlock: return "unlock";
    case SvcOp::Append: return "append";
    case SvcOp::LogAppend: return "log_append";
    case SvcOp::LogRead: return "log_read";
    case SvcOp::LogTail: return "log_tail";
    case SvcOp::LogSeal: return "log_seal";
    case SvcOp::LogTrim: return "log_trim";
    case SvcOp::LogFill: return "log_fill";
  }
  return "unknown";
}

SimTime Node::now() const {
  EVS_CHECK(env_.clock != nullptr);
  return env_.clock->now();
}

void Node::send(ProcessId to, Bytes payload) {
  if (!alive_) return;
  env_.transport->send(to, std::move(payload));
}

void Node::send_to_site(SiteId site, Bytes payload) {
  if (!alive_) return;
  env_.transport->send_to_site(site, std::move(payload));
}

void Node::send_multi(const std::vector<ProcessId>& recipients,
                      SharedBytes payload) {
  if (!alive_) return;
  env_.transport->send_multi(recipients, std::move(payload));
}

TimerId Node::set_timer(SimDuration delay, std::function<void()> fn) {
  EVS_CHECK(fn != nullptr);
  // The wrapper captures `this`, so every registered timer must be gone
  // from the shared timer queue before the node is destroyed: detach() and the
  // destructor cancel everything in live_timers_. The id slot is filled
  // after registration — safe because the runtime is single-threaded, so
  // nothing can fire between set_timer() returning and the slot being set.
  auto slot = std::make_shared<TimerId>(0);
  const TimerId id =
      env_.timers->set_timer(delay, [this, slot, fn = std::move(fn)]() {
        live_timers_.erase(*slot);
        if (alive_) fn();
      });
  *slot = id;
  live_timers_.insert(id);
  return id;
}

void Node::cancel_timer(TimerId id) {
  live_timers_.erase(id);
  env_.timers->cancel_timer(id);
}

Node::~Node() { cancel_all_timers(); }

void Node::detach() {
  alive_ = false;
  cancel_all_timers();
}

void Node::cancel_all_timers() {
  if (env_.timers == nullptr) return;
  for (const TimerId id : live_timers_) env_.timers->cancel_timer(id);
  live_timers_.clear();
}

StableStore& Node::store() {
  EVS_CHECK(env_.store != nullptr);
  return *env_.store;
}

void Node::halt() {
  if (env_.halt) env_.halt();
}

}  // namespace evs::runtime
