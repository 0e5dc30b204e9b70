// End-to-end front-door test: three real evs_node processes hosting a
// MergeableKv on 127.0.0.1, with external clients speaking the svc wire
// protocol through a SIGSTOP partition and heal.
//
//   usage: svc_loopback_test <path-to-evs_node>
//
// The contract under test (ISSUE 7): every request an external client
// submits gets exactly one *typed* response — Ok, Conflict, InvalidEpoch
// or Unavailable — never a hang, across the whole partition lifecycle:
//   1. spawn three `--object kv` nodes, each with a `svc` endpoint,
//   2. converge to the 3-view; a client learns the epoch via Get,
//   3. Put with the learned epoch -> Ok; the value is readable through a
//      *different* node (total order crossed the group),
//   4. a stale epoch is rejected with InvalidEpoch carrying the current
//      epoch (the client's re-fencing handshake),
//   5. SIGSTOP one node: the survivors install the 2-view under load; a
//      client still holding the old epoch gets InvalidEpoch{new}, re-fences
//      from that very response, and its next Put lands Ok,
//   6. SIGCONT: the 3-view returns; a post-heal Put through node 0 becomes
//      readable through the revived node (state crossed the heal),
//   7. a pipelined burst against a node with a tiny --svc-inflight cap is
//      shed with typed Unavailable{retry_after_ms} — counted on /metrics,
//      with every single request of the burst answered,
//   8. SIGTERM everything; clean exits.
//
// Plain main() runner (no gtest): exit 0 on success, 1 on failure with a
// narrated transcript on stderr. Registered RUN_SERIAL in ctest since it
// binds fixed-for-the-run loopback ports and forks real processes.
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

/// Puts with the fenced epoch, honouring the protocol's own retry
/// contract: Unavailable{retry_after_ms} means "not serving right now"
/// (settling after a view change, admission shed) and is retried; any
/// other non-Ok answer is a test failure.
SvcResponse put_until_ok(SvcConn& client, const std::string& key,
                         const std::string& value, std::uint64_t epoch,
                         const char* what) {
  for (int waited = 0; waited < 30000;) {
    const SvcResponse resp =
        client.call(svc_request(SvcOp::Put, key, value, epoch));
    if (resp.status == SvcStatus::Ok) return resp;
    if (resp.status != SvcStatus::Unavailable)
      die(std::string(what) + ": Put answered " +
          evs::runtime::to_string(resp.status) + " instead of Ok");
    const int backoff_ms =
        resp.retry_after_ms > 0 ? static_cast<int>(resp.retry_after_ms) : 50;
    ::usleep(backoff_ms * 1000);
    waited += backoff_ms;
  }
  die(std::string(what) + ": Put never succeeded");
}

/// Polls `node` with wildcard Gets until `key` reads `want` (typed Ok
/// every round — replication is eventual, a hang is not).
void await_value(SvcConn& client, const std::string& key,
                 const std::string& want, const char* what) {
  for (int waited = 0; waited < 30000; waited += 100) {
    const SvcResponse resp = client.call(svc_request(SvcOp::Get, key));
    if (resp.status != SvcStatus::Ok)
      die(std::string(what) + ": Get answered " +
          evs::runtime::to_string(resp.status) + " instead of Ok");
    if (resp.value == want) return;
    ::usleep(100 * 1000);
  }
  die(std::string(what) + ": value never became \"" + want + "\"");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <evs_node>\n", argv[0]);
    return 2;
  }
  const std::string evs_node = argv[1];

  const Layout layout = make_layout(
      "/tmp/evs_svc_loopback_", kNodes,
      {.admin = true,
       .svc = true,
       .extra = [](const std::string&, int) {
         return std::string("admin_token looptoken\n");
       }});
  keep_metrics_on_fail(layout.admin, "svc-node");

  // Node 2 gets a deliberately tiny in-flight cap: the shed phase later
  // pipelines a burst through it and expects typed Unavailable answers.
  Fleet fleet;
  for (int i = 0; i < kNodes; ++i) {
    std::vector<std::string> args = {evs_node, "--config", layout.config[i],
                                     "--object", "kv"};
    if (i == 2) args.insert(args.end(), {"--svc-inflight", "4"});
    fleet.spawn(i, args);
  }
  const std::vector<int> all = {0, 1, 2};

  // 1. Everyone serves its svc port and installs the common 3-view.
  const std::string full_view = "size=3 members=0,1,2";
  if (!fleet.await(30000, [&]() {
        return fleet.printed(all, "svc site=") &&
               fleet.printed(all, full_view);
      }))
    die("nodes never served svc and converged to the common 3-view");
  std::fprintf(stderr, "ok: 3-view installed, svc ports up\n");

  SvcConn client0(layout.svc[0]);
  SvcConn client1(layout.svc[1]);
  SvcConn client2(layout.svc[2]);

  // 2. An external client learns the epoch through a wildcard Get.
  const SvcResponse hello = client0.call(svc_request(SvcOp::Get, "k"));
  if (hello.status != SvcStatus::Ok)
    die("wildcard Get was not Ok");
  const std::uint64_t epoch = hello.view_epoch;
  if (epoch == 0) die("Ok response carries no view epoch");
  std::fprintf(stderr, "ok: client learned epoch %llu\n",
               static_cast<unsigned long long>(epoch));

  // 3. A fenced Put through node 0 becomes readable through node 1.
  put_until_ok(client0, "k", "v1", epoch, "fenced Put");
  await_value(client1, "k", "v1", "cross-node read");
  std::fprintf(stderr, "ok: fenced Put visible through another node\n");

  // 4. A stale epoch is rejected with the current epoch to re-fence by.
  const SvcResponse stale =
      client0.call(svc_request(SvcOp::Put, "k", "bad", epoch - 1));
  if (stale.status != SvcStatus::InvalidEpoch)
    die("stale-epoch Put was not InvalidEpoch");
  if (stale.view_epoch != epoch)
    die("InvalidEpoch does not carry the current epoch");
  std::fprintf(stderr, "ok: stale epoch rejected with current epoch\n");

  // 5. SIGSTOP node 2: survivors install the 2-view. The client's old
  //    epoch goes stale; the InvalidEpoch answer itself is the re-fence.
  const auto stop_offset = fleet.offsets();
  fleet.signal(2, SIGSTOP);
  if (!fleet.await(60000, [&]() {
        return fleet.printed({0, 1}, "size=2 members=0,1", stop_offset);
      }))
    die("survivors never installed the 2-view during the SIGSTOP partition");
  const SvcResponse fenced =
      client0.call(svc_request(SvcOp::Put, "k", "v2", epoch));
  if (fenced.status != SvcStatus::InvalidEpoch)
    die("old-epoch Put across the view change was not InvalidEpoch");
  const std::uint64_t epoch2 = fenced.view_epoch;
  if (epoch2 <= epoch)
    die("InvalidEpoch across the view change carries a stale epoch");
  put_until_ok(client0, "k", "v2", epoch2, "re-fenced 2-view Put");
  await_value(client1, "k", "v2", "2-view read");
  std::fprintf(stderr,
               "ok: partition fenced the old epoch, re-fenced Put landed\n");

  // 6. SIGCONT: the 3-view returns; a post-heal Put through node 0 must
  //    become readable through the revived node 2.
  const auto cont_offset = fleet.offsets();
  fleet.signal(2, SIGCONT);
  if (!fleet.await(60000, [&]() {
        return fleet.printed(all, full_view, cont_offset);
      }))
    die("fleet never reconverged to the 3-view after SIGCONT");
  const SvcResponse healed = client0.call(svc_request(SvcOp::Get, "k"));
  if (healed.status != SvcStatus::Ok) die("post-heal Get was not Ok");
  const std::uint64_t epoch3 = healed.view_epoch;
  if (epoch3 <= epoch2) die("post-heal epoch did not advance");
  put_until_ok(client0, "post-heal", "v3", epoch3, "post-heal Put");
  await_value(client2, "post-heal", "v3", "revived-node read");
  std::fprintf(stderr, "ok: post-heal Put visible through revived node\n");

  // 7. Overload shed: pipeline a burst through node 2's tiny in-flight
  //    cap. Every request must be answered — Ok for the admitted ones,
  //    Unavailable with a retry hint for the shed ones, nothing dropped.
  constexpr int kBurst = 64;
  std::vector<std::uint64_t> ids;
  ids.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i)
    ids.push_back(client2.send_request(
        svc_request(SvcOp::Put, "burst" + std::to_string(i), "x")));
  int burst_ok = 0;
  int burst_shed = 0;
  for (const std::uint64_t id : ids) {
    const SvcResponse resp = client2.recv_response(id);
    if (resp.status == SvcStatus::Ok) {
      ++burst_ok;
    } else if (resp.status == SvcStatus::Unavailable) {
      if (resp.retry_after_ms == 0)
        die("shed response carries no retry hint");
      ++burst_shed;
    } else {
      die(std::string("burst request answered ") +
          evs::runtime::to_string(resp.status));
    }
  }
  if (burst_ok == 0) die("no burst request was admitted");
  if (burst_shed == 0)
    die("pipelining past the in-flight cap shed nothing");
  std::fprintf(stderr, "ok: burst of %d -> %d ok, %d shed, 0 unanswered\n",
               kBurst, burst_ok, burst_shed);

  // ...and the shed is first-class on the admin plane.
  const std::string metrics = admin_get(layout.admin[2], "/metrics");
  if (json_number(metrics, "svc.requests_shed") < burst_shed)
    die("svc.requests_shed on /metrics below the observed shed count");
  if (json_number(metrics, "svc.requests_ok") < 1)
    die("svc.requests_ok missing from /metrics");
  if (json_number(metrics, "svc.connections_accepted") < 1)
    die("svc.connections_accepted missing from /metrics");
  std::fprintf(stderr, "ok: shed and serve counters exported on /metrics\n");

  // 8. Graceful shutdown.
  fleet.shutdown(all);
  std::fprintf(stderr, "ok: all nodes exited cleanly\n");

  remove_tree(layout.dir);
  std::printf("PASS\n");
  return 0;
}
