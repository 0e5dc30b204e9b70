// End-to-end sharded-log test: three real evs_node processes, each
// hosting FOUR log-shard group instances (G=4) over one socket/loop/
// timer queue, driven through the svc front door on 127.0.0.1.
//
//   usage: log_loopback_test <evs_node> <trace_check> <fleet_gen>
//
// The contract under test (ISSUE 8): one process hosts many groups; the
// four shards form one shared log whose global positions interleave
// (global = local*G + shard, shard = key % G):
//   1. spawn three nodes from a config with `group 1..4 log` lines; every
//      node hosts all four instances and installs all four 3-views,
//   2. writes route: a non-coordinator answers NotLeader naming the
//      coordinator site,
//   3. a pipelined burst of appends over several connections spreads
//      across all four shards; every append is acked at a global position
//      of its key's residue class, each shard's positions are dense, no
//      position is acked twice (single-copy ordering),
//   4. LogTail fans out and reports the max over shards; every acked
//      position reads back its record through a *different* node,
//   5. fill junk-fills a run of unassigned positions ('F' reads); trim
//      discards a prefix ('T' reads) while later records stay readable,
//   6. seal fences appends at the sealed epoch (InvalidEpoch) until a
//      SIGSTOP-induced view change outruns it; the 2-view majority keeps
//      appending; SIGCONT re-merges all four groups and the revived node
//      serves reads of records it never saw appended (state transfer),
//   7. a short open-loop fleet_gen load at the coordinator: every append
//      acked, no connection lost, no position acked twice; fleet_gen then
//      reads every acked position back at all three replicas (zero
//      mismatches, zero unanswered) and the replicas' tails agree,
//   8. SIGTERM everything; the merged traces pass trace_check, which
//      splits by group label and checks each group's slice on its own.
//
// Plain main() runner (no gtest): exit 0 on success, 1 on failure with a
// narrated transcript on stderr. RUN_SERIAL in ctest (fixed loopback
// ports, real forked processes).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "support/fleet.hpp"

namespace {

using namespace evs::test::fleet;
using evs::runtime::SvcOp;
using evs::runtime::SvcRequest;
using evs::runtime::SvcResponse;
using evs::runtime::SvcStatus;

constexpr int kNodes = 3;
constexpr int kShards = 4;  // groups 1..4, shard index = id - 1

/// True when `out` (past `offset`) holds a view line for `group` whose
/// same line also matches `needle` (e.g. "size=3 members=0,1,2").
bool has_group_view(const std::string& out, std::size_t offset,
                    int group, const std::string& needle) {
  const std::string head = "view group=" + std::to_string(group) + " ";
  std::size_t at = offset;
  while ((at = out.find(head, at)) != std::string::npos) {
    const std::size_t eol = out.find('\n', at);
    const std::string line =
        out.substr(at, eol == std::string::npos ? out.size() - at : eol - at);
    if (line.find(needle) != std::string::npos) return true;
    at += head.size();
  }
  return false;
}

/// Coordinator site from the last view line of `group` in `out`; -1 if
/// none.
int group_coordinator(const std::string& out, int group) {
  const std::string head = "view group=" + std::to_string(group) + " ";
  std::size_t last = std::string::npos;
  std::size_t at = 0;
  while ((at = out.find(head, at)) != std::string::npos) {
    last = at;
    at += head.size();
  }
  if (last == std::string::npos) return -1;
  const std::size_t coord = out.find("coordinator=", last);
  if (coord == std::string::npos) return -1;
  return std::atoi(out.c_str() + coord + sizeof("coordinator=") - 1);
}

/// Appends with the wildcard epoch, retrying the protocol's transient
/// outcomes: Unavailable (settling / shed) and InvalidEpoch (sealed shard
/// waiting for a view change). Returns the Ok response.
SvcResponse append_until_ok(SvcConn& client, const std::string& key,
                            const std::string& value, const char* what) {
  for (int waited = 0; waited < 60000;) {
    const SvcResponse resp =
        client.call(svc_request(SvcOp::LogAppend, key, value));
    if (resp.status == SvcStatus::Ok) return resp;
    if (resp.status != SvcStatus::Unavailable &&
        resp.status != SvcStatus::InvalidEpoch)
      die(std::string(what) + ": LogAppend answered " +
          evs::runtime::to_string(resp.status));
    const int backoff_ms =
        resp.retry_after_ms > 0 ? static_cast<int>(resp.retry_after_ms) : 100;
    ::usleep(backoff_ms * 1000);
    waited += backoff_ms;
  }
  die(std::string(what) + ": LogAppend never succeeded");
}

/// Reads `pos` until its tagged value equals `want` (replication and
/// state transfer are eventual; a non-typed answer or timeout is fatal).
void await_read(SvcConn& client, std::uint64_t pos, const std::string& want,
                const char* what) {
  for (int waited = 0; waited < 60000; waited += 100) {
    const SvcResponse resp =
        client.call(svc_request(SvcOp::LogRead, std::to_string(pos)));
    if (resp.status == SvcStatus::Ok && resp.value == want) return;
    if (resp.status != SvcStatus::Ok && resp.status != SvcStatus::Conflict &&
        resp.status != SvcStatus::Unavailable)
      die(std::string(what) + ": LogRead answered " +
          evs::runtime::to_string(resp.status));
    ::usleep(100 * 1000);
  }
  die(std::string(what) + ": position " + std::to_string(pos) +
      " never read \"" + want + "\"");
}

/// One fleet_gen load record: ten little-endian u64s per request (see
/// fleetbench/gen.cpp); only the fields this runner checks are kept.
struct LoadRecord {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t done = 0;  // 0 = never answered Ok
  std::uint64_t position = 0;
};

std::vector<LoadRecord> read_load_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<LoadRecord> records;
  unsigned char raw[80];
  while (in.read(reinterpret_cast<char*>(raw), sizeof(raw))) {
    std::uint64_t f[10];
    for (int i = 0; i < 10; ++i) {
      f[i] = 0;
      for (int b = 7; b >= 0; --b) f[i] = (f[i] << 8) | raw[i * 8 + b];
    }
    records.push_back({f[0], f[2], f[6], f[9]});
  }
  if (in.gcount() != 0) die("truncated fleet_gen record file " + path);
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <evs_node> <trace_check> <fleet_gen>\n",
                 argv[0]);
    return 2;
  }
  const std::string evs_node = argv[1];
  const std::string trace_check = argv[2];
  const std::string fleet_gen = argv[3];

  const Layout layout = make_layout(
      "/tmp/evs_log_loopback_", kNodes,
      {.svc = true, .extra = [](const std::string&, int) {
         std::string groups;
         for (int g = 1; g <= kShards; ++g)
           groups += "group " + std::to_string(g) + " log\n";
         return groups;
       }});
  const std::string& dir = layout.dir;

  Fleet fleet;
  for (int i = 0; i < kNodes; ++i)
    fleet.spawn(i, {evs_node, "--config", layout.config[i], "--trace-flush-ms",
                    "100"},
                dir);
  const std::vector<int> all = {0, 1, 2};

  // 1. Every node hosts all four shards and installs all four 3-views.
  const std::string full = "size=3 members=0,1,2";
  if (!fleet.await(60000, [&]() {
        if (!fleet.printed(all, "groups n=4 shards=4") ||
            !fleet.printed(all, "svc site="))
          return false;
        for (const int i : all)
          for (int g = 1; g <= kShards; ++g)
            if (!has_group_view(fleet[i].out, 0, g, full)) return false;
        return true;
      }))
    die("nodes never hosted 4 groups and converged to four 3-views");
  std::fprintf(stderr, "ok: 3 nodes x 4 log-shard groups, all views full\n");

  // All groups share one universe, so deterministic election gives them
  // one coordinator site; writes for every shard go there.
  const int coord = group_coordinator(fleet[0].out, 1);
  if (coord < 0 || coord >= kNodes) die("no coordinator parsed from views");
  for (int g = 2; g <= kShards; ++g)
    if (group_coordinator(fleet[0].out, g) != coord)
      die("groups disagree on the coordinator site");
  const int other = (coord + 1) % kNodes;
  std::fprintf(stderr, "ok: coordinator site %d for all four groups\n", coord);

  // 2. Writes route: a non-coordinator names the coordinator, typed.
  // Right after the view settles a replica may briefly shed load, so
  // tolerate transient Unavailable before asserting the redirect.
  SvcConn follower(layout.svc[other]);
  SvcResponse redirect = follower.call(svc_request(SvcOp::LogAppend, "0", "x"));
  for (int i = 0; i < 100 && redirect.status == SvcStatus::Unavailable; ++i) {
    ::usleep((redirect.retry_after_ms > 0 ? redirect.retry_after_ms : 50) *
             1000);
    redirect = follower.call(svc_request(SvcOp::LogAppend, "0", "x"));
  }
  if (redirect.status != SvcStatus::NotLeader)
    die(std::string("append at a non-coordinator was not NotLeader but ") +
        evs::runtime::to_string(redirect.status));
  if (redirect.coordinator_site != static_cast<std::uint32_t>(coord))
    die("NotLeader names the wrong coordinator site");
  std::fprintf(stderr, "ok: NotLeader redirect names site %d\n", coord);

  // 3. Pipelined burst over several connections, spread across shards:
  //    key i routes to shard i%4, so 80 keys put 20 records on each.
  constexpr int kBurst = 80;
  constexpr int kConns = 4;
  std::vector<std::unique_ptr<SvcConn>> writers;
  for (int c = 0; c < kConns; ++c)
    writers.push_back(std::make_unique<SvcConn>(layout.svc[coord]));
  std::map<int, std::uint64_t> pos_of_key;
  std::uint64_t epoch = 0;
  {
    std::vector<std::vector<std::pair<int, std::uint64_t>>> inflight(kConns);
    for (int i = 0; i < kBurst; ++i) {
      const int c = i % kConns;
      inflight[c].emplace_back(
          i, writers[c]->send_request(svc_request(SvcOp::LogAppend,
                                                  std::to_string(i),
                                                  "r" + std::to_string(i))));
    }
    for (int c = 0; c < kConns; ++c) {
      for (const auto& [key, id] : inflight[c]) {
        SvcResponse resp = writers[c]->recv_response(id);
        if (resp.status == SvcStatus::Unavailable)  // settling / shed
          resp = append_until_ok(*writers[c], std::to_string(key),
                                 "r" + std::to_string(key), "burst retry");
        if (resp.status != SvcStatus::Ok)
          die("burst append answered " +
              std::string(evs::runtime::to_string(resp.status)));
        pos_of_key[key] = std::strtoull(resp.value.c_str(), nullptr, 10);
        epoch = resp.view_epoch;
      }
    }
  }
  // Every ack in its key's residue class; dense per shard; no dup.
  std::set<std::uint64_t> all_positions;
  std::vector<std::set<std::uint64_t>> locals(kShards);
  for (const auto& [key, pos] : pos_of_key) {
    if (pos % kShards != static_cast<std::uint64_t>(key % kShards))
      die("key " + std::to_string(key) + " acked at position " +
          std::to_string(pos) + " outside its shard's residue class");
    if (!all_positions.insert(pos).second)
      die("position " + std::to_string(pos) + " acked twice (forked log)");
    locals[pos % kShards].insert(pos / kShards);
  }
  for (int s = 0; s < kShards; ++s) {
    if (locals[s].size() != kBurst / kShards ||
        *locals[s].rbegin() != kBurst / kShards - 1)
      die("shard " + std::to_string(s) + " positions are not dense");
  }
  std::fprintf(stderr,
               "ok: %d appends acked, dense per shard, 0 dups, epoch %llu\n",
               kBurst, static_cast<unsigned long long>(epoch));

  // 4. The fanned-out tail is the max over shards; cross-node reads see
  //    every record (total order crossed each group).
  //    Appends ack at the coordinator's delivery; the follower's replicas
  //    deliver the same multicasts a beat later, so poll the tail up.
  const std::uint64_t want_tail = (kBurst / kShards) * kShards + (kShards - 1);
  SvcResponse tail = follower.call(svc_request(SvcOp::LogTail));
  for (int i = 0; i < 200; ++i) {
    if (tail.status == SvcStatus::Ok &&
        std::strtoull(tail.value.c_str(), nullptr, 10) == want_tail)
      break;
    ::usleep(50 * 1000);
    tail = follower.call(svc_request(SvcOp::LogTail));
  }
  if (tail.status != SvcStatus::Ok) die("LogTail was not Ok");
  if (std::strtoull(tail.value.c_str(), nullptr, 10) != want_tail)
    die("LogTail reported " + tail.value + ", want " +
        std::to_string(want_tail));
  for (const auto& [key, pos] : pos_of_key)
    await_read(follower, pos, "Dr" + std::to_string(key), "cross-node read");
  std::fprintf(stderr, "ok: tail=%llu, all records readable cross-node\n",
               static_cast<unsigned long long>(want_tail));

  // 5. Fill a run beyond shard 1's tail ('F' reads), then trim shard 0's
  //    prefix ('T' reads) with later records intact.
  SvcConn writer(layout.svc[coord]);
  const std::uint64_t fill_at = (kBurst / kShards + 2) * kShards + 1;
  const SvcResponse filled =
      writer.call(svc_request(SvcOp::LogFill, std::to_string(fill_at)));
  if (filled.status != SvcStatus::Ok) die("LogFill was not Ok");
  await_read(follower, fill_at, "F", "filled read");
  await_read(follower, fill_at - kShards, "F", "junk-run read");
  const SvcResponse trimmed =
      writer.call(svc_request(SvcOp::LogTrim, std::to_string(2 * kShards)));
  if (trimmed.status != SvcStatus::Ok) die("LogTrim was not Ok");
  await_read(follower, 0, "T", "trimmed read");
  await_read(follower, kShards, "T", "trimmed read");
  // Shard 0's local 2 (global 8) survives the trim.
  int key_at_local2 = -1;
  for (const auto& [key, pos] : pos_of_key)
    if (pos == 2 * static_cast<std::uint64_t>(kShards)) key_at_local2 = key;
  if (key_at_local2 < 0) die("no record at shard 0 local 2");
  await_read(follower, 2 * kShards, "Dr" + std::to_string(key_at_local2),
             "post-trim read");
  std::fprintf(stderr, "ok: fill and trim behave, records intact\n");

  // 6. Seal fences shard 0 at the current epoch; the SIGSTOP view change
  //    outruns the seal and the 2-view majority appends again; SIGCONT
  //    re-merges and the revived node serves transferred state.
  const SvcResponse probe = append_until_ok(writer, "100", "probe", "probe");
  const std::uint64_t seal_epoch = probe.view_epoch;
  const SvcResponse sealed =
      writer.call(svc_request(SvcOp::LogSeal, std::to_string(seal_epoch)));
  if (sealed.status != SvcStatus::Ok) die("LogSeal was not Ok");
  const SvcResponse fenced =
      writer.call(svc_request(SvcOp::LogAppend, "104", "fenced"));
  if (fenced.status != SvcStatus::InvalidEpoch)
    die("append into the sealed shard was not InvalidEpoch");
  std::fprintf(stderr, "ok: sealed at epoch %llu, appends fenced\n",
               static_cast<unsigned long long>(seal_epoch));

  const int victim = 3 - coord - other;  // the third site
  auto stop_offset = fleet.offsets();
  fleet.signal(victim, SIGSTOP);
  const std::string pair =
      "size=2 members=" + std::to_string(std::min(coord, other)) + "," +
      std::to_string(std::max(coord, other));
  if (!fleet.await(90000, [&]() {
        for (const int i : {coord, other})
          for (int g = 1; g <= kShards; ++g)
            if (!has_group_view(fleet[i].out, stop_offset[i], g, pair))
              return false;
        return true;
      }))
    die("survivors never installed the four 2-views under SIGSTOP");
  const SvcResponse unsealed =
      append_until_ok(writer, "108", "after-seal", "2-view append");
  if (unsealed.view_epoch <= seal_epoch)
    die("the view change did not outrun the sealed epoch");
  std::fprintf(stderr, "ok: 2-views installed, seal outrun, append landed\n");

  stop_offset = fleet.offsets();
  fleet.signal(victim, SIGCONT);
  if (!fleet.await(90000, [&]() {
        for (int i = 0; i < kNodes; ++i)
          for (int g = 1; g <= kShards; ++g)
            if (!has_group_view(fleet[i].out, stop_offset[i], g, full))
              return false;
        return true;
      }))
    die("fleet never re-merged all four groups after SIGCONT");
  // The revived node serves a record appended while it was stopped: shard
  // 0 assigned "after-seal" some position it only learns via transfer.
  SvcConn revived(layout.svc[victim]);
  await_read(revived,
             std::strtoull(unsealed.value.c_str(), nullptr, 10),
             "Dafter-seal", "revived-node read");
  std::fprintf(stderr, "ok: re-merged; revived node serves transferred log\n");

  // 7. Open-loop load through fleet_gen at the coordinator: every append
  //    acked, no connection lost, no position acked twice, each in its
  //    key's residue class. Then fleet_gen reads every acked position
  //    back at all three replicas, and their tails must agree.
  const std::string ops_path = dir + "/load.ops";
  std::string load;
  if (run({fleet_gen, "load", "--addr", layout.svc_addr(coord), "--kind",
           "log", "--mode", "open", "--conns", "4", "--rate", "1500", "--ms",
           "1500", "--keys", "64", "--seed", "7", "--out", ops_path},
          &load) != 0)
    die("fleet_gen load failed: " + load);
  const long long ops = json_number(load, "ops");
  if (ops <= 0 || json_number(load, "ok") != ops ||
      json_number(load, "conns_lost") != 0)
    die("fleet_gen load left appends unacked: " + load);
  const std::vector<LoadRecord> records = read_load_records(ops_path);
  if (static_cast<long long>(records.size()) != ops)
    die("fleet_gen wrote " + std::to_string(records.size()) +
        " records for " + std::to_string(ops) + " appends");
  std::map<std::uint64_t, std::uint64_t> acked;  // position -> append id
  for (const LoadRecord& r : records) {
    if (r.done == 0) die("append " + std::to_string(r.id) + " never acked");
    if (r.position % kShards != r.key % kShards)
      die("key " + std::to_string(r.key) + " acked at position " +
          std::to_string(r.position) + " outside its shard's residue class");
    if (!acked.emplace(r.position, r.id).second)
      die("position " + std::to_string(r.position) +
          " acked twice (forked log)");
  }
  const std::string verify_path = dir + "/load.verify";
  {
    std::ofstream os(verify_path);
    for (const auto& [pos, id] : acked) os << pos << ' ' << id << "\n";
  }
  std::vector<std::string> verify_args = {
      fleet_gen, "verify", "--kind", "log", "--in", verify_path,
      "--seed",  "7",      "--tails", "1"};
  for (const int i : all)
    verify_args.insert(verify_args.end(), {"--addr", layout.svc_addr(i)});
  std::string verify;
  if (run(verify_args, &verify) != 0 ||
      json_number(verify, "mismatches") != 0 ||
      json_number(verify, "unanswered") != 0 ||
      !contains_after(verify, 0, "\"tails_agree\":true"))
    die("fleet_gen verify found replicas disagreeing: " + verify);
  std::fprintf(stderr,
               "ok: fleet_gen %lld appends acked once each, read back at "
               "all %d replicas, tails agree\n",
               ops, kNodes);

  // 7b. One sampled append: the trace context rides the svc frame into
  //     the ordered multicast, so after shutdown the merged dumps must
  //     assemble one span tree that crosses all three processes. Reading
  //     the record back through the other two nodes first guarantees the
  //     delivery hops exist before the traces flush.
  constexpr std::uint64_t kSampledTraceId = 0x7e5717aceull;
  SvcRequest traced_append = svc_request(SvcOp::LogAppend, "112", "traced");
  traced_append.trace_id = kSampledTraceId;
  traced_append.sampled = true;
  SvcResponse traced_resp = writer.call(traced_append);
  for (int waited = 0; traced_resp.status != SvcStatus::Ok; waited += 100) {
    if (waited >= 60000) die("sampled LogAppend never succeeded");
    if (traced_resp.status != SvcStatus::Unavailable &&
        traced_resp.status != SvcStatus::InvalidEpoch)
      die(std::string("sampled LogAppend answered ") +
          evs::runtime::to_string(traced_resp.status));
    ::usleep(100 * 1000);
    traced_resp = writer.call(traced_append);
  }
  const std::uint64_t traced_pos =
      std::strtoull(traced_resp.value.c_str(), nullptr, 10);
  await_read(follower, traced_pos, "Dtraced", "sampled-record read");
  await_read(revived, traced_pos, "Dtraced", "sampled-record read");
  std::fprintf(stderr, "ok: sampled append at %llu replicated everywhere\n",
               static_cast<unsigned long long>(traced_pos));

  // 8. Clean shutdown; the merged traces pass the per-group checker.
  fleet.shutdown(all);
  std::vector<std::string> traces;
  for (int i = 0; i < kNodes; ++i) {
    const std::string path =
        dir + "/evs_node-site" + std::to_string(i) + ".trace.jsonl";
    if (::access(path.c_str(), R_OK) != 0) die("missing trace: " + path);
    traces.push_back(path);
  }
  if (run({trace_check, "--merge", traces[0], traces[1],
                    traces[2]}) != 0)
    die("trace_check found violations in a group's merged trace");
  std::fprintf(stderr, "ok: merged traces pass per-group trace_check\n");

  // 9. The sampled request assembles into one monotonic span tree. The
  //    JSON lands in $EVS_LOOPBACK_ARTIFACTS when set (CI uploads it),
  //    else in the scratch dir.
  const char* artifacts = std::getenv("EVS_LOOPBACK_ARTIFACTS");
  const bool keep_tree = artifacts != nullptr && *artifacts != '\0';
  const std::string tree_path =
      (keep_tree ? std::string(artifacts) : dir) + "/request_tree.json";
  if (run({trace_check, "--merge", traces[0], traces[1], traces[2],
                    "--request", "0x7e5717ace", "--request-json",
                    tree_path}) != 0)
    die("trace_check rejected the sampled request's span tree");
  std::string tree;
  {
    std::ifstream is(tree_path);
    std::string line;
    while (std::getline(is, line)) tree += line;
  }
  if (tree.find("\"found\":true") == std::string::npos ||
      tree.find("\"monotonic\":true") == std::string::npos)
    die("request tree JSON is not a found+monotonic tree: " + tree);
  for (int i = 0; i < kNodes; ++i)
    if (tree.find("\"" + std::to_string(i) + ":") == std::string::npos)
      die("sampled request's span tree is missing site " + std::to_string(i));
  std::fprintf(stderr,
               "ok: sampled request's span tree crosses all %d processes\n",
               kNodes);

  remove_tree(dir);
  std::printf("PASS\n");
  return 0;
}
