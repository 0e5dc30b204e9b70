// Test support: the process scaffolding shared by the loopback runners
// (net_loopback_test, svc_loopback_test, log_loopback_test,
// crash_restart_loopback_test). Each runner forks real evs_node processes
// on 127.0.0.1, follows their stdout, talks to their svc front doors and
// scrapes their admin planes; this header is the one copy of that
// plumbing. Header-only, like evs_cluster.hpp: a runner includes it and
// links evs_svc and evs_http_client.
//
// Failure handling is fail-fast: die() prints the message, every node's
// output so far and whatever the runner hooked into on_fail, then exits 1.
// A node whose stdout closes while the runner still expects it alive is
// reported at once, with its exit status and whether it got as far as its
// ready line ("up site=..."), instead of surfacing later as a timeout.
#pragma once

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "http_client.hpp"
#include "runtime/svc.hpp"
#include "svc/protocol.hpp"

namespace evs::test::fleet {

/// Extra failure reporting (e.g. scraping /metrics into a CI artifact);
/// runs inside die() after the node outputs are dumped.
inline std::function<void()> on_fail;

class Fleet;
/// The live Fleet, if any: die() dumps its output and kills its nodes.
inline Fleet* current_fleet = nullptr;

/// Reports `message`, the fleet's output and on_fail, SIGKILLs every node
/// still running, and exits 1.
[[noreturn]] inline void die(const std::string& message);

inline bool contains_after(const std::string& text, std::size_t offset,
                           const std::string& needle) {
  return text.find(needle, offset) != std::string::npos;
}

/// "exit code N" / "killed by signal N (NAME)" for a waitpid status.
inline std::string describe_status(int status) {
  if (WIFEXITED(status))
    return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status)) + " (" +
           ::strsignal(WTERMSIG(status)) + ")";
  return "wait status " + std::to_string(status);
}

// ------------------------------------------------------------- ports ---

/// Hands out loopback ports for one run: every port is distinct, and each
/// is probed with the protocol it will serve (UDP for the peer transport,
/// TCP for the admin and svc listeners). evs_node aborts on a failed bind,
/// so a port handed out twice, or free for UDP but taken for TCP, would
/// kill a node before it prints its ready line.
class Ports {
 public:
  std::uint16_t udp() { return take(SOCK_DGRAM); }
  std::uint16_t tcp() { return take(SOCK_STREAM); }

 private:
  std::uint16_t take(int type) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      const int fd = ::socket(AF_INET, type, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      socklen_t len = sizeof(addr);
      const bool bound =
          fd >= 0 &&
          ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
          ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
      if (fd >= 0) ::close(fd);
      if (!bound) die("probing a free loopback port failed");
      if (used_.insert(ntohs(addr.sin_port)).second) return ntohs(addr.sin_port);
    }
    die("no distinct free loopback port after 100 probes");
  }

  std::set<std::uint16_t> used_;
};

// ------------------------------------------------------------ layout ---

/// A fleet's address plan and per-site config files in a fresh scratch
/// directory. `admin`/`svc` stay empty when the plan has no such lines.
struct Layout {
  std::string dir;
  std::vector<std::uint16_t> peer, admin, svc;
  std::vector<std::string> config;

  std::string svc_addr(int site) const {
    return "127.0.0.1:" + std::to_string(svc[static_cast<std::size_t>(site)]);
  }
};

struct LayoutOptions {
  bool admin = false;
  bool svc = false;
  /// Config lines appended to each site's file after the address lines,
  /// given the scratch directory and the site.
  std::function<std::string(const std::string& dir, int site)> extra;
};

/// mkdtemp(`dir_prefix` + "XXXXXX"), then writes node<i>.conf for `n`
/// sites: self, every peer, and every admin/svc line the options ask for.
inline Layout make_layout(const std::string& dir_prefix, int n,
                          const LayoutOptions& opt) {
  std::string tmpl = dir_prefix + "XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) die("mkdtemp() failed");
  Layout l;
  l.dir = tmpl;
  Ports ports;
  for (int i = 0; i < n; ++i) l.peer.push_back(ports.udp());
  for (int i = 0; opt.admin && i < n; ++i) l.admin.push_back(ports.tcp());
  for (int i = 0; opt.svc && i < n; ++i) l.svc.push_back(ports.tcp());
  const auto lines = [&](std::ostream& os, const char* keyword,
                         const std::vector<std::uint16_t>& plan) {
    for (std::size_t j = 0; j < plan.size(); ++j)
      os << keyword << ' ' << j << " 127.0.0.1:" << plan[j] << "\n";
  };
  for (int i = 0; i < n; ++i) {
    const std::string path = l.dir + "/node" + std::to_string(i) + ".conf";
    std::ofstream os(path);
    os << "self " << i << "\n";
    lines(os, "peer", l.peer);
    lines(os, "admin", l.admin);
    lines(os, "svc", l.svc);
    if (opt.extra) os << opt.extra(l.dir, i);
    l.config.push_back(path);
  }
  return l;
}

// --------------------------------------------------------- processes ---

/// Runs `args` (args[0] is the binary path) to completion; returns its
/// exit code, or -1 if it did not exit normally. With `out`, the child's
/// stdout is captured there instead of inherited.
inline int run(const std::vector<std::string>& args,
               std::string* out = nullptr) {
  int pipe_fds[2] = {-1, -1};
  if (out != nullptr && ::pipe(pipe_fds) != 0) die("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) die("fork() failed");
  if (pid == 0) {
    if (out != nullptr) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
    }
    std::vector<char*> argv;
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    _exit(127);
  }
  if (out != nullptr) {
    ::close(pipe_fds[1]);
    char buf[4096];
    ssize_t n;
    while ((n = ::read(pipe_fds[0], buf, sizeof(buf))) > 0)
      out->append(buf, static_cast<std::size_t>(n));
    ::close(pipe_fds[0]);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Removes a scratch directory and everything in it.
inline void remove_tree(const std::string& dir) {
  run({"/bin/rm", "-rf", dir});
}

/// One forked node: its pid, the read end of its stdout pipe and
/// everything it printed so far.
struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string out;
  int exit_status = -1;
};

/// The nodes of one run, indexed by site. A slot is respawned in place
/// after a crash, so indices stay site ids.
class Fleet {
 public:
  Fleet() { current_fleet = this; }
  ~Fleet() { current_fleet = nullptr; }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  Child& operator[](int site) { return nodes_[index(site)]; }
  const Child& operator[](int site) const { return nodes_[index(site)]; }
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Forks `args` as site `site`'s node (a new slot when site == size()),
  /// stdout piped back here; a non-empty `trace_dir` becomes its
  /// EVS_TRACE_OUT.
  void spawn(int site, const std::vector<std::string>& args,
             const std::string& trace_dir = {}) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) die("pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) die("fork() failed");
    if (pid == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      if (!trace_dir.empty()) ::setenv("EVS_TRACE_OUT", trace_dir.c_str(), 1);
      std::vector<char*> argv;
      for (const std::string& a : args)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv");
      _exit(127);
    }
    ::close(pipe_fds[1]);
    ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
    Child child;
    child.pid = pid;
    child.out_fd = pipe_fds[0];
    if (site == size())
      nodes_.push_back(std::move(child));
    else
      nodes_[index(site)] = std::move(child);
  }

  /// Reads whatever the nodes printed; true if any data arrived. A node
  /// whose output ends here exited on its own: that is fatal.
  bool drain(int timeout_ms) {
    std::vector<pollfd> fds;
    for (const Child& c : nodes_)
      if (c.out_fd >= 0) fds.push_back({c.out_fd, POLLIN, 0});
    if (fds.empty()) return false;
    if (::poll(fds.data(), fds.size(), timeout_ms) <= 0) return false;
    bool got = false;
    for (int site = 0; site < size(); ++site) {
      Child& c = nodes_[index(site)];
      if (c.out_fd < 0) continue;
      char buf[4096];
      for (;;) {
        const ssize_t n = ::read(c.out_fd, buf, sizeof(buf));
        if (n > 0) {
          c.out.append(buf, static_cast<std::size_t>(n));
          got = true;
        } else if (n == 0) {
          reap(site);
          die("node" + std::to_string(site) + " exited " +
              (contains_after(c.out, 0, "up site=")
                   ? "unexpectedly"
                   : "before its ready line") +
              " (" + describe_status(c.exit_status) + ")");
        } else {
          break;  // EAGAIN
        }
      }
    }
    return got;
  }

  /// Pumps node output until `pred()` holds or ~timeout_ms passes.
  bool await(int timeout_ms, const std::function<bool()>& pred) {
    for (int waited = 0; waited < timeout_ms;) {
      if (pred()) return true;
      drain(50);
      waited += 50;
    }
    return pred();
  }

  /// Every node's output length now: offsets for "printed after this".
  std::vector<std::size_t> offsets() const {
    std::vector<std::size_t> at;
    for (const Child& c : nodes_) at.push_back(c.out.size());
    return at;
  }

  /// True when every site in `sites` printed `needle`, past its entry in
  /// `from` when given.
  bool printed(const std::vector<int>& sites, const std::string& needle,
               const std::vector<std::size_t>& from = {}) const {
    for (const int s : sites)
      if (!contains_after((*this)[s].out, from.empty() ? 0 : from[index(s)],
                          needle))
        return false;
    return true;
  }

  void signal(int site, int sig) { ::kill((*this)[site].pid, sig); }

  /// SIGKILL and reap.
  void kill9(int site) {
    signal(site, SIGKILL);
    reap(site);
  }

  /// Waits for the node to exit and collects the rest of its output.
  void reap(int site) {
    Child& child = (*this)[site];
    int status = 0;
    if (::waitpid(child.pid, &status, 0) == child.pid)
      child.exit_status = status;
    while (child.out_fd >= 0) {
      char buf[4096];
      const ssize_t n = ::read(child.out_fd, buf, sizeof(buf));
      if (n > 0) {
        child.out.append(buf, static_cast<std::size_t>(n));
      } else {
        ::close(child.out_fd);
        child.out_fd = -1;
      }
    }
  }

  /// SIGTERMs `sites`, reaps them, and requires each to exit 0 after
  /// printing its summary line.
  void shutdown(const std::vector<int>& sites) {
    for (const int s : sites) signal(s, SIGTERM);
    for (const int s : sites) reap(s);
    for (const int s : sites) {
      const Child& c = (*this)[s];
      if (!WIFEXITED(c.exit_status) || WEXITSTATUS(c.exit_status) != 0)
        die("node" + std::to_string(s) + " exited uncleanly (" +
            describe_status(c.exit_status) + ")");
      if (!contains_after(c.out, 0, "summary "))
        die("node" + std::to_string(s) + " printed no summary");
    }
  }

  void dump() const {
    for (int site = 0; site < size(); ++site)
      std::fprintf(stderr, "--- node%d output ---\n%s\n", site,
                   (*this)[site].out.c_str());
  }

  /// SIGKILLs and reaps every node that is still running.
  void kill_all() {
    for (int site = 0; site < size(); ++site)
      if ((*this)[site].out_fd >= 0) kill9(site);
  }

 private:
  static std::size_t index(int site) { return static_cast<std::size_t>(site); }

  std::vector<Child> nodes_;
};

inline void die(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  if (current_fleet != nullptr) current_fleet->dump();
  if (on_fail) on_fail();
  if (current_fleet != nullptr) current_fleet->kill_all();
  std::exit(1);
}

// ------------------------------------------------------- admin plane ---

/// GET `path` from the admin plane on 127.0.0.1:`port`: the body of a
/// 200 answer, "" on anything else (refused, timed out, non-200).
inline std::string admin_get(std::uint16_t port, const std::string& path) {
  const net::PeerAddr addr{0x7f000001u, port};
  return tools::http_get(addr, path, 5000).value_or("");
}

/// The value of `"key":"..."` in a JSON body; "" if absent.
inline std::string json_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = body.find('"', start);
  return end == std::string::npos ? std::string{}
                                  : body.substr(start, end - start);
}

/// The value of `"key":<number>` in a JSON body; -1 if absent.
inline long long json_number(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + needle.size());
}

/// When $EVS_LOOPBACK_ARTIFACTS is set, a failure scrapes every node's
/// /metrics into <artifacts>/<prefix><site>.metrics.json for CI upload.
inline void keep_metrics_on_fail(const std::vector<std::uint16_t>& admin,
                                 const std::string& prefix) {
  const char* artifacts = std::getenv("EVS_LOOPBACK_ARTIFACTS");
  if (artifacts == nullptr) return;
  on_fail = [out_dir = std::string(artifacts), admin, prefix]() {
    for (std::size_t i = 0; i < admin.size(); ++i) {
      const std::string metrics = admin_get(admin[i], "/metrics");
      if (metrics.empty()) continue;
      std::ofstream os(out_dir + "/" + prefix + std::to_string(i) +
                       ".metrics.json");
      os << metrics;
    }
  };
}

// -------------------------------------------------------- front door ---

inline runtime::SvcRequest svc_request(runtime::SvcOp op, std::string key = {},
                                       std::string value = {},
                                       std::uint64_t epoch = 0) {
  runtime::SvcRequest r;
  r.op = op;
  r.key = std::move(key);
  r.value = std::move(value);
  r.view_epoch = epoch;
  return r;
}

/// A raw pipelined client on one persistent connection to a node's svc
/// port: send_request() returns the request id, recv_response() the typed
/// answer to it (answers to other ids are parked for their own call). The
/// runners check raw responses, so nothing here retries a request.
///
/// The connection opens lazily, retrying for up to 5 s: a respawned
/// node's svc listener may be a beat behind its up line. Every receive
/// runs under a hard deadline, because a request left without a typed
/// answer is exactly what the runners exist to catch.
class SvcConn {
 public:
  explicit SvcConn(std::uint16_t port) : port_(port) {}
  ~SvcConn() { reset(); }
  SvcConn(const SvcConn&) = delete;
  SvcConn& operator=(const SvcConn&) = delete;

  /// Drops the connection (e.g. to a killed node); the next request
  /// reconnects.
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    rx_.clear();
    rx_off_ = 0;
    parked_.clear();
  }

  std::uint64_t send_request(const runtime::SvcRequest& req) {
    if (fd_ < 0) connect();
    const std::uint64_t id = next_id_++;
    std::string frame;
    svc::append_frame(frame, svc::encode_request(id, req));
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) die("client send() failed");
      sent += static_cast<std::size_t>(n);
    }
    return id;
  }

  runtime::SvcResponse recv_response(std::uint64_t id, int timeout_ms = 10000) {
    for (int waited = 0;;) {
      const auto parked = parked_.find(id);
      if (parked != parked_.end()) {
        runtime::SvcResponse resp = parked->second;
        parked_.erase(parked);
        return resp;
      }
      Bytes frame_body;
      switch (svc::next_frame(rx_, rx_off_, frame_body)) {
        case svc::FrameStatus::Frame: {
          const auto wire = svc::decode_response(frame_body);
          parked_.emplace(wire.request_id, wire.resp);
          continue;
        }
        case svc::FrameStatus::Malformed:
          die("server sent a malformed frame");
        case svc::FrameStatus::NeedMore:
          break;
      }
      if (waited >= timeout_ms)
        die("request " + std::to_string(id) +
            " hung: no typed response within the deadline");
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 200) > 0) {
        char buf[4096];
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0)
          rx_.append(buf, static_cast<std::size_t>(n));
        else if (n == 0)
          die("server closed the connection mid-request");
      } else {
        waited += 200;
      }
    }
  }

  runtime::SvcResponse call(const runtime::SvcRequest& req,
                            int timeout_ms = 10000) {
    return recv_response(send_request(req), timeout_ms);
  }

 private:
  void connect() {
    for (int waited = 0; waited <= 5000; waited += 100) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) die("client socket() failed");
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port_);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
        return;
      reset();
      ::usleep(100 * 1000);
    }
    die("client connect() to svc port " + std::to_string(port_) + " failed");
  }

  std::uint16_t port_;
  int fd_ = -1;
  std::string rx_;
  std::size_t rx_off_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, runtime::SvcResponse> parked_;
};

}  // namespace evs::test::fleet
