// fleet_gen: the benchmark's single-threaded, seeded load generator and
// read-back checker for a fleet's svc front doors.
//
//   fleet_gen load   --addr IP:PORT --kind log|kv --mode open|closed
//                    [--rate OPS_PER_S] --conns N --ms DURATION --seed S
//                    --id-base B --out FILE [--keys K] [--put-pct P]
//                    [--think-us T] [--quickack 0|1]
//   fleet_gen probe  --addr IP:PORT --kind log|kv --seed S --id-base B
//                    [--op write|tail]
//   fleet_gen verify --addr IP:PORT [--addr ...] --kind log|kv --in FILE
//                    --seed S [--tails 0|1]
//
// load: the open loop sends request i when it is due, at start + i/rate,
// over N persistent pipelined connections, whatever the replies do; the
// closed loop keeps one request outstanding per connection, sending the
// next a think time of --think-us after each reply. Values are 64 bytes.
// The poll wakes at the next due send or retry. A non-Ok reply (fenced,
// shed, settling) is retried after the server's hint, capped at
// kMaxRetryMs, until the phase's grace deadline. Each request carries a
// unique trace id with the sampled flag clear: the node does no tracing
// work, but a traced host can key its spans by it. One record per request
// is written to --out as ten little-endian u64s:
//
//   id, kind (0 append, 1 get, 2 put), key, due_ns, sent_ns, last_sent_ns,
//   done_ns (0 = never answered Ok), status, attempts, result
//
// where result is the acked global position for an append and, for a get,
// the id of the put whose value came back (0 for an empty value,
// UINT64_MAX for a value no put to that key could have written). Values
// are derived from (seed, id), so verify can recompute them.
//
// probe: one write (or, for a log, one LogTail, which every shard must
// answer Ok) through the front door, retried every 1 ms (connect included)
// until Ok for at most 5 s.
//
// verify: reads every line of --in back from every address, one
// connection per replica, retrying non-Ok answers for up to kVerifyWaitNs,
// so a replica that lags behind the coordinator can catch up. Log lines
// are "<position> <id>": each read must return 'D' + the value of append
// <id>, or, for id 0, the same tagged record at every replica. Kv lines
// are "<key>": every replica must return the same value, reported as the
// put id it encodes. With --tails 1, log verify also asks each replica for
// LogTail until all agree.
//
// Every mode prints one JSON object on stdout. Times are CLOCK_MONOTONIC
// nanoseconds, the clock run.py and the traced host read.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "svc/protocol.hpp"

using namespace evs;
using runtime::SvcOp;
using runtime::SvcStatus;

namespace {

constexpr std::uint64_t kMaxRetryMs = 1;
constexpr std::uint64_t kMs = 1'000'000;
constexpr std::uint64_t kGraceNs = 3'000 * kMs;
constexpr std::uint64_t kNone = UINT64_MAX;
constexpr std::uint64_t kVerifyWaitNs = 15'000 * kMs;
constexpr std::size_t kValueBytes = 64;

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end == s.c_str() + s.size();
}

struct Options {
  std::string mode;
  std::vector<std::string> addrs;
  std::string kind = "log";
  std::string load_mode = "open";
  std::uint64_t rate = 1000;
  std::uint64_t conns = 4;
  std::uint64_t ms = 1000;
  std::uint64_t seed = 1;
  std::uint64_t id_base = 1;
  std::uint64_t keys = 256;
  std::uint64_t put_pct = 10;
  std::uint64_t think_us = 0;
  bool quickack = false;
  std::string in;
  std::string out;
  std::string probe_op = "write";
  bool tails = true;
};

enum Kind : std::uint64_t { kAppend = 0, kGet = 1, kPut = 2, kRead = 3, kTail = 4 };

/// The kv key named by index `key`.
std::string kv_key(std::uint64_t key) {
  std::string k = "k";
  k += std::to_string(key);
  return k;
}

/// The value op `id` writes: a parseable prefix naming the op (and, for
/// kv, the key), padded to the value size with letters drawn from
/// (seed, id).
std::string value_for(const Options& o, std::uint64_t kind, std::uint64_t key,
                      std::uint64_t id) {
  std::string v;
  if (kind == kPut) {
    v += kv_key(key);
    v += ':';
  } else {
    v += 'a';
  }
  v += std::to_string(id);
  v += ':';
  std::uint64_t state = (o.seed * 0x100000001b3ULL) ^ id;
  while (v.size() < kValueBytes)
    v.push_back(static_cast<char>('a' + splitmix(state) % 26));
  return v;
}

/// The put id a kv value encodes: 0 for an empty value, kNone for a value
/// no put to `key` could have written.
std::uint64_t put_id_of(const std::string& value, std::uint64_t key) {
  if (value.empty()) return 0;
  std::string prefix = kv_key(key);
  prefix += ':';
  if (value.rfind(prefix, 0) != 0) return kNone;
  const auto colon = value.find(':', prefix.size());
  std::uint64_t id = 0;
  if (colon == std::string::npos ||
      !parse_u64(value.substr(prefix.size(), colon - prefix.size()), id))
    return kNone;
  return id;
}

struct Op {
  std::uint64_t id = 0;
  std::uint64_t kind = kAppend;
  std::uint64_t key = 0;  // routing key, kv key, or log position
  std::uint64_t due = 0;
  std::uint64_t sent = 0;
  std::uint64_t last_sent = 0;
  std::uint64_t done = 0;
  std::uint64_t status = 0;
  std::uint64_t attempts = 0;
  std::uint64_t result = 0;
  std::size_t conn = 0;
  std::string value;  // last Ok reply value (verify only)
};

runtime::SvcRequest request_for(const Options& o, const Op& op) {
  runtime::SvcRequest r;
  r.trace_id = op.id;  // correlator only: sampled stays false
  switch (op.kind) {
    case kAppend:
      r.op = SvcOp::LogAppend;
      r.key = std::to_string(op.key);
      r.value = value_for(o, kAppend, op.key, op.id);
      break;
    case kGet:
      r.op = SvcOp::Get;
      r.key = kv_key(op.key);
      break;
    case kPut:
      r.op = SvcOp::Put;
      r.key = kv_key(op.key);
      r.value = value_for(o, kPut, op.key, op.id);
      break;
    case kRead:
      r.op = SvcOp::LogRead;
      r.key = std::to_string(op.key);
      break;
    default:
      r.op = SvcOp::LogTail;
  }
  return r;
}

// ---------------------------------------------------------------- engine --

struct Conn {
  int fd = -1;
  std::string in;
  std::size_t in_off = 0;
  std::string out;
  std::size_t sent = 0;
};

int connect_to(const std::string& addr) {
  const auto colon = addr.rfind(':');
  std::uint64_t port = 0;
  if (colon == std::string::npos || !parse_u64(addr.substr(colon + 1), port) ||
      port > 65535)
    return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, addr.substr(0, colon).c_str(), &sa.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Pipelined request/response over a few connections with timed retries.
/// Completion (Ok, or final failure once the retry deadline passed) is
/// reported through on_done; ops keep their slot in `ops`.
class Engine {
 public:
  Engine(const Options& o, const std::vector<std::string>& conn_addrs)
      : o_(o), conns_(conn_addrs.size()) {
    for (std::size_t i = 0; i < conns_.size(); ++i)
      conns_[i].fd = connect_to(conn_addrs[i]);
  }
  ~Engine() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  bool connected() const {
    return std::all_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return c.fd >= 0; });
  }
  std::size_t conn_count() const { return conns_.size(); }
  bool idle() const { return inflight_.empty() && retries_.empty(); }
  std::uint64_t retries() const { return retry_count_; }
  std::uint64_t conns_lost() const { return conns_lost_; }

  std::vector<Op> ops;
  std::function<void(std::size_t)> on_done;
  /// Non-Ok replies before this time are retried; later ones are final.
  std::uint64_t retry_deadline = 0;

  std::size_t add(Op op) {
    ops.push_back(std::move(op));
    return ops.size() - 1;
  }

  void send(std::size_t i) {
    Op& op = ops[i];
    Conn& c = conns_[op.conn];
    const std::uint64_t t = now_ns();
    if (op.attempts == 0) op.sent = t;
    op.last_sent = t;
    ++op.attempts;
    if (c.fd < 0) {  // the connection died: the op is lost
      finish(i, 0);
      return;
    }
    const std::uint64_t rid = next_rid_++;
    svc::append_frame(c.out, svc::encode_request(rid, request_for(o_, op)));
    inflight_.emplace(rid, i);
    flush(c);
  }

  /// Sends retries that are due, then polls until `wake` at the latest.
  void step(std::uint64_t wake) {
    const std::uint64_t now = now_ns();
    while (!retries_.empty() && retries_.top().first <= now) {
      const std::size_t i = retries_.top().second;
      retries_.pop();
      send(i);
    }
    if (!retries_.empty()) wake = std::min(wake, retries_.top().first);
    pfds_.clear();
    pfd_conns_.clear();
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      const Conn& c = conns_[ci];
      if (c.fd < 0) continue;
      short events = POLLIN;
      if (c.sent < c.out.size()) events |= POLLOUT;
      pfds_.push_back(pollfd{c.fd, events, 0});
      pfd_conns_.push_back(ci);
    }
    const std::uint64_t left = wake > now ? wake - now : 0;
    timespec ts{static_cast<time_t>(left / 1'000'000'000ULL),
                static_cast<long>(left % 1'000'000'000ULL)};
    if (::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr) <= 0) return;
    for (std::size_t pi = 0; pi < pfds_.size(); ++pi) {
      const std::size_t ci = pfd_conns_[pi];
      // A callback may have dropped this connection meanwhile.
      if (conns_[ci].fd != pfds_[pi].fd) continue;
      if (pfds_[pi].revents & POLLOUT) flush(conns_[ci]);
      if (conns_[ci].fd >= 0 && (pfds_[pi].revents & (POLLIN | POLLERR | POLLHUP)))
        read(ci);
    }
  }

 private:
  void flush(Conn& c) {
    while (c.sent < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (n > 0) {
        c.sent += static_cast<std::size_t>(n);
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        drop(c);
        return;
      }
    }
    c.out.clear();
    c.sent = 0;
  }

  void read(std::size_t ci) {
    Conn& c = conns_[ci];
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      drop(c);
      return;
    }
    // --quickack 1: acknowledge replies at once. At a few requests per
    // second per connection the kernel switches between immediate and
    // delayed ACKs from run to run, and a node that holds its next reply
    // until the ACK (Nagle) then shows two latency modes.
    if (o_.quickack) {
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    }
    Bytes body;
    while (svc::next_frame(c.in, c.in_off, body) == svc::FrameStatus::Frame) {
      svc::WireResponse wire;
      try {
        wire = svc::decode_response(body);
      } catch (const DecodeError&) {
        drop(c);
        return;
      }
      const auto it = inflight_.find(wire.request_id);
      if (it == inflight_.end()) continue;
      const std::size_t i = it->second;
      inflight_.erase(it);
      reply(i, wire.resp);
    }
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }

  void reply(std::size_t i, const runtime::SvcResponse& resp) {
    Op& op = ops[i];
    const std::uint64_t t = now_ns();
    op.status = static_cast<std::uint64_t>(resp.status);
    if (resp.status == SvcStatus::Ok) {
      op.value = resp.value;
      if (op.kind == kAppend) {
        std::uint64_t pos = 0;
        op.result = parse_u64(resp.value, pos) ? pos : kNone;
      } else if (op.kind == kGet) {
        op.result = put_id_of(resp.value, op.key);
      }
      finish(i, t);
      return;
    }
    if (t >= retry_deadline) {
      finish(i, 0);
      return;
    }
    ++retry_count_;
    const std::uint64_t hint =
        std::clamp<std::uint64_t>(resp.retry_after_ms, 1, kMaxRetryMs);
    retries_.emplace(t + hint * kMs, i);
  }

  void finish(std::size_t i, std::uint64_t done) {
    ops[i].done = done;
    if (on_done) on_done(i);
  }

  /// Closes a broken connection; its unanswered requests are lost.
  void drop(Conn& c) {
    const std::size_t ci = static_cast<std::size_t>(&c - conns_.data());
    ::close(c.fd);
    c.fd = -1;
    ++conns_lost_;
    std::vector<std::size_t> lost;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (ops[it->second].conn == ci) {
        lost.push_back(it->second);
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
    for (const std::size_t i : lost) finish(i, 0);
  }

  const Options& o_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, std::size_t> inflight_;  // rid -> op
  using Retry = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Retry, std::vector<Retry>, std::greater<>> retries_;
  std::vector<pollfd> pfds_;
  std::vector<std::size_t> pfd_conns_;
  std::uint64_t next_rid_ = 1;
  std::uint64_t retry_count_ = 0;
  std::uint64_t conns_lost_ = 0;
};

// ----------------------------------------------------------------- modes --

int run_load(const Options& o) {
  // Wake at the due time, not up to the default 50 us timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Engine engine(o, std::vector<std::string>(o.conns, o.addrs.front()));
  if (!engine.connected()) {
    std::printf("{\"error\":\"connect\"}\n");
    return 1;
  }
  std::uint64_t rng = o.seed ^ (o.id_base * 0xd1342543de82ef95ULL);
  const bool open = o.load_mode == "open";
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + o.ms * kMs;
  engine.retry_deadline = end + kGraceNs / 2;
  const std::uint64_t interval = 1'000'000'000ULL / std::max<std::uint64_t>(1, o.rate);

  auto issue = [&](std::size_t conn, std::uint64_t due) {
    Op op;
    op.id = o.id_base + engine.ops.size();
    op.kind = o.kind == "kv"
                  ? (splitmix(rng) % 100 < o.put_pct ? kPut : kGet)
                  : kAppend;
    op.key = splitmix(rng) % o.keys;
    op.due = due;
    op.conn = conn;
    engine.send(engine.add(std::move(op)));
  };
  // Closed loop: a connection's next request is due --think-us after its
  // previous reply.
  using Due = std::pair<std::uint64_t, std::size_t>;  // (due, conn)
  std::priority_queue<Due, std::vector<Due>, std::greater<>> thinking;
  if (!open) {
    engine.on_done = [&](std::size_t i) {
      const std::uint64_t t = now_ns();
      if (t < end) thinking.emplace(t + o.think_us * 1'000, engine.ops[i].conn);
    };
    for (std::size_t c = 0; c < engine.conn_count(); ++c) issue(c, start);
  }
  std::uint64_t next = 0;  // open loop: index of the next due request
  while (true) {
    const std::uint64_t now = now_ns();
    if (open) {
      while (now < end && start + next * interval <= now) {
        issue(next % engine.conn_count(), start + next * interval);
        ++next;
      }
    }
    while (!thinking.empty() && thinking.top().first <= now) {
      const Due due = thinking.top();
      thinking.pop();
      if (due.first < end) issue(due.second, due.first);
    }
    if (now >= end && engine.idle() && thinking.empty()) break;
    if (now >= end + kGraceNs) break;
    std::uint64_t wake = end + kGraceNs;
    if (now < end) wake = std::min(wake, open ? start + next * interval : end);
    if (!thinking.empty()) wake = std::min(wake, thinking.top().first);
    engine.step(wake);
  }

  std::uint64_t ok = 0, bad_reads = 0;
  for (const Op& op : engine.ops) {
    if (op.done != 0) ++ok;
    if (op.kind == kGet && op.done != 0 && op.result == kNone) ++bad_reads;
  }
  std::ofstream out(o.out, std::ios::binary);
  for (const Op& op : engine.ops) {
    const std::uint64_t rec[10] = {op.id,   op.kind,      op.key,
                                   op.due,  op.sent,      op.last_sent,
                                   op.done, op.status,    op.attempts,
                                   op.result};
    out.write(reinterpret_cast<const char*>(rec), sizeof(rec));
  }
  out.close();
  std::printf(
      "{\"ops\":%zu,\"ok\":%llu,\"retries\":%llu,\"conns_lost\":%llu,"
      "\"bad_reads\":%llu,\"start_ns\":%llu,\"end_ns\":%llu,\"written\":%s}\n",
      engine.ops.size(), static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(engine.retries()),
      static_cast<unsigned long long>(engine.conns_lost()),
      static_cast<unsigned long long>(bad_reads),
      static_cast<unsigned long long>(start),
      static_cast<unsigned long long>(end), out ? "true" : "false");
  return out ? 0 : 1;
}

int run_probe(const Options& o) {
  // A restarted node may not listen yet: retry the connect every 1 ms.
  const std::uint64_t start = now_ns();
  for (int fd = -1; fd < 0;) {
    fd = connect_to(o.addrs.front());
    if (fd >= 0) {
      ::close(fd);
    } else if (now_ns() > start + 5'000 * kMs) {
      std::printf("{\"ok\":false,\"error\":\"connect\"}\n");
      return 1;
    } else {
      ::usleep(1'000);
    }
  }
  Engine engine(o, {o.addrs.front()});
  if (!engine.connected()) {
    std::printf("{\"ok\":false,\"error\":\"connect\"}\n");
    return 1;
  }
  engine.retry_deadline = start + 5'000 * kMs;
  Op op;
  op.id = o.id_base;
  op.kind = o.probe_op == "tail" ? kTail : o.kind == "kv" ? kPut : kAppend;
  op.due = start;
  bool finished = false;
  engine.on_done = [&](std::size_t) { finished = true; };
  engine.send(engine.add(std::move(op)));
  while (!finished && now_ns() < engine.retry_deadline + kGraceNs)
    engine.step(now_ns() + 100 * kMs);
  const Op& done = engine.ops.front();
  std::printf("{\"ok\":%s,\"done_ns\":%llu,\"attempts\":%llu}\n",
              done.done != 0 ? "true" : "false",
              static_cast<unsigned long long>(done.done),
              static_cast<unsigned long long>(done.attempts));
  return done.done != 0 ? 0 : 1;
}

/// Runs `ops` (conn already set) to completion with a bounded window per
/// connection; returns when every op finished.
void run_all(Engine& engine, std::size_t window) {
  std::vector<std::vector<std::size_t>> queue(engine.conn_count());
  for (std::size_t i = 0; i < engine.ops.size(); ++i)
    queue[engine.ops[i].conn].push_back(i);
  std::vector<std::size_t> cursor(queue.size(), 0);
  std::size_t finished = 0;
  auto feed = [&](std::size_t c) {
    if (cursor[c] < queue[c].size()) engine.send(queue[c][cursor[c]++]);
  };
  engine.on_done = [&](std::size_t i) {
    ++finished;
    feed(engine.ops[i].conn);
  };
  for (std::size_t c = 0; c < queue.size(); ++c)
    for (std::size_t w = 0; w < window; ++w) feed(c);
  while (finished < engine.ops.size())
    engine.step(now_ns() + 100 * kMs);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

int run_verify(const Options& o) {
  Engine engine(o, o.addrs);
  if (!engine.connected()) {
    std::printf("{\"error\":\"connect\"}\n");
    return 1;
  }
  std::ifstream in(o.in);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lines;
  for (std::uint64_t a = 0, b = 0; in >> a;) {
    if (o.kind == "log" && !(in >> b)) break;
    lines.emplace_back(a, b);
  }
  const bool log = o.kind == "log";
  engine.retry_deadline = now_ns() + kVerifyWaitNs;
  for (std::size_t c = 0; c < o.addrs.size(); ++c) {
    for (const auto& [key, ref] : lines) {
      Op op;
      op.id = o.id_base + engine.ops.size();
      op.kind = log ? kRead : kGet;
      op.key = key;
      op.result = ref;  // log: the append id whose value must come back
      op.conn = c;
      engine.add(std::move(op));
    }
  }
  run_all(engine, 32);

  std::uint64_t mismatches = 0, unanswered = 0;
  std::vector<std::uint64_t> unanswered_at(o.addrs.size(), 0);
  std::vector<std::uint64_t> mismatches_at(o.addrs.size(), 0);
  std::string first_mismatch;
  std::string kv_ids;  // kv: "[key,id,id,id]" per line, replicas agreeing
  for (std::size_t l = 0; l < lines.size(); ++l) {
    std::vector<const Op*> reads;
    for (std::size_t c = 0; c < o.addrs.size(); ++c)
      reads.push_back(&engine.ops[c * lines.size() + l]);
    for (const Op* r : reads) {
      if (r->done == 0) {
        ++unanswered;
        ++unanswered_at[r->conn];
        continue;
      }
      const bool tagged = !r->value.empty() && (r->value[0] == 'D' ||
                                                r->value[0] == 'F' ||
                                                r->value[0] == 'T');
      const bool match =
          log && lines[l].second != 0
              ? r->value == "D" + value_for(o, kAppend, 0, lines[l].second)
              : r->value == reads.front()->value && (!log || tagged);
      if (!match) {
        ++mismatches;
        ++mismatches_at[r->conn];
        if (first_mismatch.empty())
          first_mismatch = "key " + std::to_string(lines[l].first) + " at " +
                           o.addrs[r->conn] + ": " + r->value.substr(0, 24);
      }
    }
    if (!log) {
      if (!kv_ids.empty()) kv_ids += ",";
      kv_ids += "[" + std::to_string(lines[l].first) + "," +
                std::to_string(put_id_of(reads.front()->value, lines[l].first)) +
                "]";
    }
  }

  // Log: every replica must report the same LogTail once the load is over.
  std::vector<std::uint64_t> tails;
  bool tails_agree = true;
  if (log && o.tails) {
    const std::uint64_t deadline = now_ns() + kVerifyWaitNs;
    do {
      engine.ops.clear();
      engine.retry_deadline = deadline;
      for (std::size_t c = 0; c < o.addrs.size(); ++c) {
        Op op;
        op.id = o.id_base + c;
        op.kind = kTail;
        op.conn = c;
        engine.add(std::move(op));
      }
      run_all(engine, 1);
      tails.clear();
      for (const Op& op : engine.ops) {
        std::uint64_t t = kNone;
        if (op.done == 0 || !parse_u64(op.value, t)) t = kNone;
        tails.push_back(t);
      }
      tails_agree = std::all_of(tails.begin(), tails.end(), [&](std::uint64_t t) {
        return t != kNone && t == tails.front();
      });
      if (!tails_agree) ::usleep(20'000);
    } while (!tails_agree && now_ns() < deadline);
  }

  auto json_list = [](const std::vector<std::uint64_t>& v) {
    std::string out;
    for (const std::uint64_t x : v) {
      if (!out.empty()) out += ',';
      out += std::to_string(x);
    }
    return out;
  };
  std::string tails_json;
  for (const std::uint64_t t : tails)
    tails_json += (tails_json.empty() ? "" : ",") +
                  (t == kNone ? std::string("null") : std::to_string(t));
  std::printf(
      "{\"checked\":%zu,\"mismatches\":%llu,\"unanswered\":%llu,"
      "\"unanswered_at\":[%s],\"mismatches_at\":[%s],"
      "\"first_mismatch\":\"%s\",\"tails\":[%s],\"tails_agree\":%s,"
      "\"kv_ids\":[%s]}\n",
      lines.size() * o.addrs.size(),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(unanswered),
      json_list(unanswered_at).c_str(), json_list(mismatches_at).c_str(),
      json_escape(first_mismatch).c_str(), tails_json.c_str(),
      tails_agree ? "true" : "false", kv_ids.c_str());
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s load|probe|verify --addr IP:PORT [--addr ...]\n"
               "          --kind log|kv [--mode open|closed] [--rate N]\n"
               "          [--conns N] [--ms N] [--seed N] [--id-base N]\n"
               "          [--keys N] [--put-pct N] [--in FILE] [--out FILE]\n"
               "          [--think-us N] [--quickack 0|1] [--op write|tail]\n"
               "          [--tails 0|1]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string arg = argv[i];
    const std::string v = argv[i + 1];
    std::uint64_t n = 0;
    const bool num = parse_u64(v, n);
    if (arg == "--addr") o.addrs.push_back(v);
    else if (arg == "--kind") o.kind = v;
    else if (arg == "--mode") o.load_mode = v;
    else if (arg == "--in") o.in = v;
    else if (arg == "--out") o.out = v;
    else if (arg == "--op") o.probe_op = v;
    else if (!num) return usage(argv[0]);
    else if (arg == "--rate") o.rate = n;
    else if (arg == "--conns") o.conns = n;
    else if (arg == "--ms") o.ms = n;
    else if (arg == "--seed") o.seed = n;
    else if (arg == "--id-base") o.id_base = n;
    else if (arg == "--keys") o.keys = n;
    else if (arg == "--put-pct") o.put_pct = n;
    else if (arg == "--think-us") o.think_us = n;
    else if (arg == "--quickack") o.quickack = n != 0;
    else if (arg == "--tails") o.tails = n != 0;
    else return usage(argv[0]);
  }
  if (o.addrs.empty() || (o.kind != "log" && o.kind != "kv") ||
      o.conns == 0 || o.keys == 0 ||
      (o.load_mode != "open" && o.load_mode != "closed") ||
      (o.probe_op != "write" && o.probe_op != "tail"))
    return usage(argv[0]);
  if (o.mode == "load" && !o.out.empty()) return run_load(o);
  if (o.mode == "probe") return run_probe(o);
  if (o.mode == "verify" && !o.in.empty()) return run_verify(o);
  return usage(argv[0]);
}
