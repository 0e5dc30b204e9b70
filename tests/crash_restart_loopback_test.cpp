// Crash-restart loopback test: durable stores under three real evs_node
// processes hosting a ReplicatedFile on 127.0.0.1.
//
//   usage: crash_restart_loopback_test <path-to-evs_node> <path-to-trace_check>
//
// The contract under test (the durable-StableStore ISSUE): a SIGKILLed
// node restarted from its store directory must come back as a *new*
// incarnation with its pre-crash object state, and rejoin the group via a
// bounded-delta state transfer — not a full snapshot copy.
//   1. spawn three `--object file` nodes, each with a `store <dir>` config
//      line; converge, check every up line reports incarnation=1,
//   2. build file content with fenced Appends through the front door and
//      wait until every replica reads it back,
//   3. fast-restart regression (the incarnation-reuse bug): SIGKILL node 1
//      and respawn it immediately — within one heartbeat interval, before
//      the survivors can even suspect it. The restarted process must boot
//      as incarnation=2 (bumped from the store, never reused; peers drop
//      frames from a reused incarnation as stale, which wedged exactly
//      this restart before the fix), re-enter the 3-view and serve again,
//   4. bounded-delta rejoin: SIGKILL node 2, append a small suffix through
//      the survivors, respawn node 2 from its store. It must recover the
//      pre-crash prefix from disk, Pull against that basis, and install a
//      delta — delta_bytes_received is on the order of the suffix, far
//      below the prefix it did NOT re-transfer; zero full fallbacks, zero
//      snapshot decode errors. Its store metrics must show recovery
//      (recovered records/keys) and group commit (fsyncs < puts),
//   5. SIGTERM everything; clean exits,
//   6. trace_check --merge over the union of all five process traces
//      (three originals + two restarted incarnations): zero violations.
//
// Plain main() runner (no gtest); RUN_SERIAL in ctest (fixed loopback
// ports, real forked processes).
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support/fleet.hpp"

namespace {

using namespace evs::test::fleet;
using evs::runtime::SvcOp;
using evs::runtime::SvcResponse;
using evs::runtime::SvcStatus;

constexpr int kNodes = 3;

/// Blocks until the periodic trace flush (--trace-flush-ms 100) has
/// written `path` at least once — a SIGKILL before the first flush
/// would otherwise leave that incarnation out of the merged check.
void await_trace(const std::string& path) {
  for (int waited = 0; waited < 10000; waited += 50) {
    if (::access(path.c_str(), R_OK) == 0) return;
    ::usleep(50 * 1000);
  }
  die("trace never flushed: " + path);
}

/// Appends with the protocol's own retry contract: Unavailable means
/// "retry later" (settling), InvalidEpoch re-fences from the answer.
void append_until_ok(SvcConn& client, const std::string& value,
                     std::uint64_t& epoch, const char* what) {
  for (int waited = 0; waited < 30000;) {
    const SvcResponse resp =
        client.call(svc_request(SvcOp::Append, {}, value, epoch));
    if (resp.status == SvcStatus::Ok) return;
    if (resp.status == SvcStatus::InvalidEpoch) {
      epoch = resp.view_epoch;
      continue;
    }
    if (resp.status != SvcStatus::Unavailable)
      die(std::string(what) + ": Append answered " +
          evs::runtime::to_string(resp.status) + " instead of Ok");
    const int backoff_ms =
        resp.retry_after_ms > 0 ? static_cast<int>(resp.retry_after_ms) : 50;
    ::usleep(backoff_ms * 1000);
    waited += backoff_ms;
  }
  die(std::string(what) + ": Append never succeeded");
}

/// Polls with wildcard Gets until the file content equals `want`.
void await_content(SvcConn& client, const std::string& want,
                   const char* what) {
  for (int waited = 0; waited < 30000; waited += 100) {
    const SvcResponse resp = client.call(svc_request(SvcOp::Get));
    if (resp.status == SvcStatus::Ok && resp.value == want) return;
    if (resp.status != SvcStatus::Ok && resp.status != SvcStatus::Unavailable)
      die(std::string(what) + ": Get answered " +
          evs::runtime::to_string(resp.status));
    ::usleep(100 * 1000);
  }
  die(std::string(what) + ": content never converged (" +
      std::to_string(want.size()) + "B expected)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <evs_node> <trace_check>\n", argv[0]);
    return 2;
  }
  const std::string evs_node = argv[1];
  const std::string trace_check = argv[2];

  // The whole point of this test: every node persists through a WAL store
  // and restarts from it.
  const Layout layout = make_layout(
      "/tmp/evs_crash_restart_", kNodes,
      {.admin = true, .svc = true, .extra = [](const std::string& dir, int i) {
         return "store " + dir + "/store" + std::to_string(i) + "\n";
       }});
  const std::string& dir = layout.dir;
  keep_metrics_on_fail(layout.admin, "crash-restart-node");

  // --trace-flush-ms keeps a near-current trace on disk so the SIGKILL
  // victims still contribute to the merged trace_check pass.
  Fleet fleet;
  std::vector<std::string> trace_names;
  const auto spawn = [&](int site, const std::string& trace_name) {
    trace_names.push_back(trace_name);
    fleet.spawn(site,
                {evs_node, "--config", layout.config[site], "--object", "file",
                 "--trace-flush-ms", "100", "--trace-name", trace_name},
                dir);
  };
  for (int i = 0; i < kNodes; ++i)
    spawn(i, "cr-site" + std::to_string(i) + "-run1");
  const std::vector<int> all = {0, 1, 2};

  // 1. Fresh boot: everyone up as incarnation 1, common 3-view, svc ports.
  const std::string full_view = "size=3 members=0,1,2";
  if (!fleet.await(30000, [&]() {
        return fleet.printed(all, "incarnation=1") &&
               fleet.printed(all, "svc site=") &&
               fleet.printed(all, full_view);
      }))
    die("nodes never converged to the 3-view as incarnation 1");
  std::fprintf(stderr, "ok: 3-view installed, all incarnation=1\n");

  SvcConn client0(layout.svc[0]);
  SvcConn client1(layout.svc[1]);
  SvcConn client2(layout.svc[2]);

  // 2. Build the file prefix through the front door: big enough that
  //    re-copying it later would be conspicuous next to the delta.
  const SvcResponse hello = client0.call(svc_request(SvcOp::Get));
  if (hello.status != SvcStatus::Ok) die("wildcard Get was not Ok");
  std::uint64_t epoch = hello.view_epoch;
  if (epoch == 0) die("Ok response carries no view epoch");
  std::string expected;
  constexpr int kPrefixAppends = 40;
  for (int i = 0; i < kPrefixAppends; ++i) {
    std::string piece = "prefix" + std::to_string(i) + ":";
    piece.resize(64, 'p');
    append_until_ok(client0, piece, epoch, "prefix Append");
    expected += piece;
  }
  await_content(client1, expected, "prefix on node1");
  await_content(client2, expected, "prefix on node2");
  const std::size_t prefix_bytes = expected.size();
  std::fprintf(stderr, "ok: %zuB prefix replicated everywhere\n",
               prefix_bytes);

  // 3. Fast restart (the incarnation-reuse regression): SIGKILL node 1 and
  //    respawn it immediately, faster than any failure detection. Before
  //    the monotonic bump, the restarted process reused incarnation 1 and
  //    its peers silently dropped its frames as stale duplicates.
  const auto fast_offset = fleet.offsets();
  await_trace(dir + "/cr-site1-run1.trace.jsonl");
  fleet.kill9(1);
  spawn(1, "cr-site1-run2");
  client1.reset();  // drop the connection to the killed incarnation
  if (!fleet.await(30000,
                   [&]() { return fleet.printed({1}, "incarnation=2"); }))
    die("fast-restarted node 1 did not bump to incarnation=2");
  if (!fleet.await(60000, [&]() {
        return fleet.printed({1}, full_view) &&
               fleet.printed({0, 2}, full_view, fast_offset);
      }))
    die("fleet never re-formed the 3-view around the fast-restarted node");
  // The restarted incarnation must actually serve: an append through it
  // lands, and is visible elsewhere.
  std::string tail1 = "after-fast-restart:";
  tail1.resize(32, 'f');
  append_until_ok(client1, tail1, epoch, "post-fast-restart Append");
  expected += tail1;
  await_content(client0, expected, "fast-restart append on node0");
  std::fprintf(stderr,
               "ok: fast restart bumped incarnation, rejoined and serves\n");

  // 4. Bounded-delta rejoin: SIGKILL node 2, advance the file while it is
  //    down, restart it from disk.
  const auto kill_offset = fleet.offsets();
  await_trace(dir + "/cr-site2-run1.trace.jsonl");
  fleet.kill9(2);
  if (!fleet.await(60000, [&]() {
        return fleet.printed({0, 1}, "size=2 members=0,1", kill_offset);
      }))
    die("survivors never installed the 2-view after the kill");
  std::string suffix;
  constexpr int kSuffixAppends = 4;
  for (int i = 0; i < kSuffixAppends; ++i) {
    std::string piece = "suffix" + std::to_string(i) + ":";
    piece.resize(32, 's');
    append_until_ok(client0, piece, epoch, "suffix Append");
    suffix += piece;
  }
  expected += suffix;
  await_content(client0, expected, "suffix on node0");
  std::fprintf(stderr, "ok: %zuB suffix written while node 2 was down\n",
               suffix.size());

  const auto rejoin_offset = fleet.offsets();
  spawn(2, "cr-site2-run2");
  client2.reset();  // drop the connection to the killed incarnation
  if (!fleet.await(30000,
                   [&]() { return fleet.printed({2}, "incarnation=2"); }))
    die("restarted node 2 did not bump to incarnation=2");
  if (!fleet.await(60000, [&]() {
        return fleet.printed({2}, full_view) &&
               fleet.printed({0, 1}, full_view, rejoin_offset);
      }))
    die("fleet never re-formed the 3-view around restarted node 2");
  await_content(client2, expected, "converged content on restarted node 2");
  std::fprintf(stderr, "ok: restarted node 2 rejoined with the full file\n");

  // ...and it got there via a bounded delta over its recovered state, not
  // a full copy. All of this is first-class on its /metrics.
  std::string metrics2;
  if (!fleet.await(15000, [&]() {
        metrics2 = admin_get(layout.admin[2], "/metrics");
        return json_number(metrics2, "node.delta_installs") >= 1;
      })) {
    std::fprintf(stderr, "metrics: %s\n", metrics2.c_str());
    die("restarted node 2 reports no delta install");
  }
  if (json_number(metrics2, "node.delta_pulls") < 1)
    die("restarted node 2 sent no delta Pull");
  if (json_number(metrics2, "node.delta_full_fallbacks") != 0)
    die("delta transfer fell back to a full snapshot");
  if (json_number(metrics2, "node.snapshot_decode_errors") != 0)
    die("restart path counted snapshot decode errors");
  const long long delta_bytes = json_number(metrics2, "node.delta_bytes_received");
  if (delta_bytes <= 0) die("no delta bytes received");
  if (delta_bytes >= static_cast<long long>(prefix_bytes))
    die("delta (" + std::to_string(delta_bytes) + "B) is not bounded: the " +
        std::to_string(prefix_bytes) + "B prefix was re-transferred");
  // Store-side evidence: it really recovered from disk, and the WAL group
  // commit amortised syncs across puts.
  if (json_number(metrics2, "store.recovered_records") +
          json_number(metrics2, "store.recovered_snapshot_keys") <
      1)
    die("restarted node 2 recovered nothing from its store");
  const long long puts = json_number(metrics2, "store.puts");
  const long long fsyncs = json_number(metrics2, "store.fsync_calls");
  if (puts < 1 || fsyncs < 1) die("store counters missing from /metrics");
  if (fsyncs >= puts)
    die("group commit did not amortise: " + std::to_string(fsyncs) +
        " fsyncs for " + std::to_string(puts) + " puts");
  std::fprintf(stderr,
               "ok: bounded delta (%lldB vs %zuB prefix), recovery and "
               "group commit on /metrics\n",
               delta_bytes, prefix_bytes);

  // The source side deferred its offer and served the delta.
  const std::string metrics0 = admin_get(layout.admin[0], "/metrics");
  if (json_number(metrics0, "node.deferred_offers") < 1)
    die("source representative never deferred an offer");
  if (json_number(metrics0, "node.delta_serves") < 1)
    die("source representative served no delta");
  std::fprintf(stderr, "ok: source deferred offers and served deltas\n");

  // 5. Graceful shutdown.
  fleet.shutdown(all);
  std::fprintf(stderr, "ok: all nodes exited cleanly\n");

  // 6. The union of every incarnation's trace passes the checker.
  std::vector<std::string> check = {trace_check, "--merge"};
  for (const std::string& name : trace_names) {
    const std::string path = dir + "/" + name + ".trace.jsonl";
    if (::access(path.c_str(), R_OK) != 0) die("missing trace: " + path);
    check.push_back(path);
  }
  if (run(check) != 0) die("trace_check found violations in the merged traces");
  std::fprintf(stderr, "ok: merged traces across restarts pass trace_check\n");

  remove_tree(dir);
  std::printf("PASS\n");
  return 0;
}
