// Real-time runtime, part 2: static peer configuration.
//
// A node learns the universe — every site that may ever host a group
// member, the same bootstrap set sim runs pass as
// EndpointConfig::universe — from a small text file:
//
//   # evs_node config
//   self 0            # this process's SiteId (must appear as a peer)
//   incarnation 1     # optional; bump after a crash-recovery restart
//   peer 0 127.0.0.1:9000
//   peer 1 127.0.0.1:9001
//   peer 2 10.0.0.7:9000
//   admin 0 127.0.0.1:9100   # optional per-node admin (HTTP) endpoint
//   admin 1 127.0.0.1:9101
//   admin_token hunter2      # shared secret enabling the admin write side
//   svc 0 127.0.0.1:9200     # optional per-node client service endpoint
//   svc 1 127.0.0.1:9201     # (binary request/response, see svc/server.hpp)
//   coalesce off             # optional; default on (pack small frames
//                            # into one datagram per peer per flush)
//   store /var/lib/evs/s0    # optional durable store directory (WAL +
//                            # snapshots, src/store/); omitted = volatile
//   group 0 kv               # optional: group instances this process
//   group 1 log              # hosts, one line per instance — id is the
//   group 2 log              # wire-level GroupId, the word names the
//                            # hosted object kind (kv | lock | file |
//                            # log | none). No group lines = the single
//                            # default group 0, object chosen by the
//                            # host binary's flags, exactly as before.
//
// The peer line for `self` doubles as the bind address; an admin line for
// `self` makes the node serve the live-observability HTTP plane there
// (see net/admin.hpp), and admin lines for other sites are how fleet
// tools (tools/evs_top, tools/evs_ctl) find every node's endpoint from
// one file. A `svc` line for `self` additionally serves the external-client
// front door there (length-prefixed binary request/response, svc/server.hpp);
// svc lines for other sites let clients find the whole fleet's front doors
// from one file. An `admin_token` line (one word, no spaces) arms the admin
// plane's POST side: control commands (/join, /leave, /merge-all,
// /merge) are only accepted when they carry the same token, and a config
// without the line leaves the plane read-only. Parsing is strict:
// unknown keywords, duplicate sites, admin lines for unknown sites, or
// malformed addresses fail with a line-numbered error rather than
// half-loading a cluster map.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace evs::net {

/// IPv4 endpoint, host byte order.
struct PeerAddr {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;

  auto operator<=>(const PeerAddr&) const = default;

  std::string str() const;
};

/// Parses "a.b.c.d:port"; returns nullopt on any malformation.
std::optional<PeerAddr> parse_addr(const std::string& text);

/// One `group <id> <object>` line: a group instance this process hosts.
/// The object word is the hosted group-object kind; the config layer only
/// checks it is a known kind, the host binary instantiates it.
struct GroupSpec {
  GroupId id = kDefaultGroup;
  std::string object;  // "kv" | "lock" | "file" | "log" | "none"

  auto operator<=>(const GroupSpec&) const = default;
};

struct NodeConfig {
  SiteId self;
  std::uint32_t incarnation = 1;
  /// Site -> address for every member of the universe, self included.
  std::map<SiteId, PeerAddr> peers;
  /// Site -> admin-plane (HTTP) address; optional, any subset of `peers`.
  std::map<SiteId, PeerAddr> admin;
  /// Site -> client-service (binary front door) address; optional, any
  /// subset of `peers`.
  std::map<SiteId, PeerAddr> svc;
  /// Shared secret for admin-plane POST commands; empty = write side off.
  std::string admin_token;
  /// Directory for the durable store (WAL + snapshots, src/store/). Empty
  /// = volatile MemoryStore, exactly the pre-durability behaviour. With a
  /// directory configured the runtime also persists and monotonically
  /// bumps the incarnation across restarts (a restarted process must
  /// never reuse its predecessor's incarnation — peers drop frames
  /// addressed to a stale one), and hosted objects persist their state
  /// and rejoin via bounded-delta state transfer.
  std::string store_dir;
  /// Small-message coalescing on the wire path (UdpTransport); on by
  /// default, `coalesce off` pins every frame to its own datagram.
  bool coalesce = true;
  /// Group instances to host, in file order (ids unique). Empty = the
  /// single default group, configured by the host binary as before.
  std::vector<GroupSpec> groups;

  /// The log-object groups among `groups`, in id order. Their rank in
  /// this vector is the shard index of the sharded log (shard i of G).
  std::vector<GroupSpec> log_shards() const;

  /// Sorted universe (the key set of `peers`).
  std::vector<SiteId> universe() const;
  const PeerAddr& self_addr() const { return peers.at(self); }
  /// This node's admin endpoint, if configured.
  std::optional<PeerAddr> self_admin_addr() const {
    const auto it = admin.find(self);
    return it == admin.end() ? std::nullopt : std::optional<PeerAddr>(it->second);
  }
  /// This node's client-service endpoint, if configured.
  std::optional<PeerAddr> self_svc_addr() const {
    const auto it = svc.find(self);
    return it == svc.end() ? std::nullopt : std::optional<PeerAddr>(it->second);
  }
};

/// Parses a config stream. On failure returns false and sets `error` to a
/// line-numbered description; `out` is left unspecified.
bool parse_node_config(std::istream& in, NodeConfig& out, std::string& error);

/// Convenience: parse a file by path.
bool load_node_config(const std::string& path, NodeConfig& out,
                      std::string& error);

}  // namespace evs::net
