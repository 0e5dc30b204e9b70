// End-to-end loopback test: three real evs_node processes on 127.0.0.1.
//
//   usage: net_loopback_test <path-to-evs_node> <path-to-trace_check>
//                            <path-to-evs_top> <path-to-evs_ctl>
//
// The scenario the ISSUE prescribes, driven over the nodes' stdout:
//   1. spawn three evs_node processes from generated configs (each with
//      a per-node admin endpoint and a shared admin_token),
//   2. wait until every node installs the common 3-view,
//   3. wait until every node delivers all 300 multicasts (100 per node),
//   3b. scrape GET /status and /metrics from all three live admin
//       endpoints — identical view ids, live transport counters, parsing
//       Prometheus exposition — and run evs_top --once --expect-converged,
//   3c. partition-and-heal over the control plane: SIGSTOP one node until
//       the survivors install the 2-view, SIGCONT it and wait for the
//       3-view to come back in *split* mode (the structure does not grow
//       by itself — the paper's asymmetry), check a wrong-token POST is
//       refused, then drive evs_ctl --all merge-all (retrying: a node
//       blocked mid-view-change drops merge requests by design) until
//       every node reports the merged e-view in normal mode,
//   4. SIGKILL one member; the survivors must install the 2-view,
//   5. SIGTERM the survivors and check their clean exit,
//   6. replay the union of the trace dumps through trace_check --merge:
//      zero P2.1-P2.3 violations, plus the cross-process span correlation
//      (written into $EVS_LOOPBACK_ARTIFACTS when set, for CI upload).
//
// The victim's trace survives its SIGKILL because the nodes run with
// --trace-flush-ms; we only kill after the workload is quiescent, so the
// last flush already covers every multicast the survivors delivered.
//
// Plain main() runner (no gtest): exit 0 on success, 1 on failure with a
// narrated transcript on stderr. Registered RUN_SERIAL in ctest since it
// binds fixed-for-the-run loopback ports and forks real processes.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/fleet.hpp"

namespace {

using namespace evs::test::fleet;

constexpr int kNodes = 3;

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: %s <evs_node> <trace_check> <evs_top> <evs_ctl>\n",
                 argv[0]);
    return 2;
  }
  const std::string evs_node = argv[1];
  const std::string trace_check = argv[2];
  const std::string evs_top = argv[3];
  const std::string evs_ctl = argv[4];

  const Layout layout = make_layout(
      "/tmp/evs_loopback_", kNodes,
      {.admin = true, .extra = [](const std::string&, int) {
         return std::string("admin_token looptoken\n");
       }});
  const std::string& dir = layout.dir;
  const std::vector<std::string>& config_paths = layout.config;

  Fleet fleet;
  for (int i = 0; i < kNodes; ++i)
    fleet.spawn(i,
                {evs_node, "--config", config_paths[i], "--multicast", "100",
                 "--send-interval-ms", "5", "--trace-flush-ms", "100",
                 "--merge-all"},
                dir);
  const std::vector<int> all = {0, 1, 2};

  // 1. Every node installs the common full view {0,1,2}.
  const std::string full_view = "size=3 members=0,1,2";
  if (!fleet.await(30000, [&]() { return fleet.printed(all, full_view); }))
    die("nodes never converged to the common 3-view");
  std::fprintf(stderr, "ok: common 3-view at every node\n");

  // 2. All 300 multicasts (100 per node) delivered everywhere, in the
  //    full view — total order means n=300 appears exactly once per node.
  if (!fleet.await(60000,
                   [&]() { return fleet.printed(all, "deliver n=300 "); }))
    die("nodes never delivered all 300 multicasts");
  std::fprintf(stderr, "ok: 300 deliveries at every node\n");

  // 3b. The live admin plane: every node's /status must report the same
  //     installed view, /metrics must expose live transport counters, and
  //     the Prometheus exposition must be well-formed.
  std::string common_view;
  for (int i = 0; i < kNodes; ++i) {
    const std::uint16_t admin = layout.admin[i];
    const std::string status = admin_get(admin, "/status");
    if (status.empty())
      die("admin /status of node" + std::to_string(i) + " not served");
    const std::string view = json_field(status, "view");
    if (view.empty())
      die("admin /status of node" + std::to_string(i) + " has no view id");
    if (common_view.empty()) common_view = view;
    if (view != common_view)
      die("node" + std::to_string(i) + " /status view " + view +
          " != node0's " + common_view);
    if (json_field(status, "mode").empty())
      die("node" + std::to_string(i) + " /status has no mode");

    const std::string metrics = admin_get(admin, "/metrics");
    if (metrics.empty())
      die("admin /metrics of node" + std::to_string(i) + " not served");
    if (!contains_after(metrics, 0, "\"transport.datagrams_sent\":"))
      die("node" + std::to_string(i) + " /metrics lacks transport counters");
    if (!contains_after(metrics, 0, "\"transport.dropped_malformed\":"))
      die("node" + std::to_string(i) + " /metrics lacks drop counters");
    if (!contains_after(metrics, 0, "\"transport.syscalls.sendmsg_calls\":") ||
        !contains_after(metrics, 0, "\"transport.syscalls.recvmsg_calls\":"))
      die("node" + std::to_string(i) + " /metrics lacks syscall counters");
    if (!contains_after(metrics, 0, "\"transport.recv_errors\":"))
      die("node" + std::to_string(i) + " /metrics lacks recv_errors");
    if (!contains_after(metrics, 0, "\"transport.datagrams_coalesced\":") ||
        !contains_after(metrics, 0, "\"transport.frames_sent\":"))
      die("node" + std::to_string(i) + " /metrics lacks coalescing counters");
    if (!contains_after(metrics, 0, "\"node.app_delivered\":"))
      die("node" + std::to_string(i) + " /metrics lacks endpoint counters");

    const std::string prom = admin_get(admin, "/metrics.prom");
    if (!contains_after(prom, 0, "# TYPE transport_datagrams_sent counter"))
      die("node" + std::to_string(i) + " /metrics.prom malformed");
  }
  std::fprintf(stderr, "ok: admin /status agrees on view %s at every node\n",
               common_view.c_str());

  // ... and the fleet tool agrees the fleet is converged.
  if (run({evs_top, "--config", config_paths[0], "--once",
           "--expect-converged", "--timeout-ms", "5000"}) != 0)
    die("evs_top --once --expect-converged failed on a converged fleet");
  std::fprintf(stderr, "ok: evs_top sees a converged fleet\n");

  // 3c. Partition-and-heal, driven through the admin control plane.
  //
  // True iff every node serves /status with one common view id and the
  // given mode ("normal" = degenerate structure, "split" = the e-view
  // still carries partition-era subviews awaiting an application merge).
  const auto fleet_in_mode = [&](const char* want_mode) {
    std::string view0;
    for (int i = 0; i < kNodes; ++i) {
      const std::string status = admin_get(layout.admin[i], "/status");
      const std::string view = json_field(status, "view");
      if (view.empty() || json_field(status, "mode") != want_mode)
        return false;
      if (i == 0)
        view0 = view;
      else if (view != view0)
        return false;
    }
    return true;
  };

  // SIGSTOP node 2: the survivors' detector drops it and they install the
  // 2-view. The stopped process keeps its sockets; nothing is torn down.
  const std::string survivor_pair = "size=2 members=0,1";
  const auto stop_offset = fleet.offsets();
  fleet.signal(2, SIGSTOP);
  if (!fleet.await(60000, [&]() {
        return fleet.printed({0, 1}, survivor_pair, stop_offset);
      }))
    die("survivors never installed the 2-view during the SIGSTOP partition");
  std::fprintf(stderr, "ok: SIGSTOP partition: survivors in the 2-view\n");

  // SIGCONT: the view comes back to {0,1,2}, but the e-view structure must
  // NOT heal by itself — growth is application-controlled, so the fleet
  // reconverges in split mode, partition-era subviews intact.
  const auto cont_offset = fleet.offsets();
  fleet.signal(2, SIGCONT);
  if (!fleet.await(60000, [&]() {
        return fleet.printed(all, full_view, cont_offset);
      }))
    die("fleet never reconverged to the 3-view after SIGCONT");
  bool split = false;
  for (int waited = 0; waited < 30000 && !split; waited += 250) {
    fleet.drain(0);
    split = fleet_in_mode("split");
    if (!split) ::usleep(250 * 1000);
  }
  if (!split)
    die("healed fleet is not in split mode — structure merged on its own?");
  std::fprintf(stderr, "ok: healed view is back, e-view still split\n");

  // The write side is token-guarded: a wrong token must be refused (401)
  // and counted, and must not merge anything.
  if (run({evs_ctl, "--config", config_paths[0], "--site", "0", "--token",
           "wrong", "--timeout-ms", "2000", "merge-all"}) == 0)
    die("evs_ctl with a wrong token was accepted");
  if (!contains_after(admin_get(layout.admin[0], "/metrics"), 0,
                      "\"admin.dropped_unauthorized\":1"))
    die("unauthorized POST was not counted in admin.dropped_unauthorized");
  std::fprintf(stderr, "ok: wrong-token merge-all refused and counted\n");

  // Now the real heal: POST /merge-all to every node (only the current
  // primary acts on it; the others forward). A node that is blocked
  // mid-view-change drops merge requests by design, so retry until every
  // node reports the merged, degenerate e-view.
  bool merged = false;
  for (int attempt = 0; attempt < 40 && !merged; ++attempt) {
    run({evs_ctl, "--config", config_paths[0], "--all", "--timeout-ms", "2000",
         "merge-all"});
    for (int i = 0; i < 4 && !merged; ++i) {
      fleet.drain(100);
      merged = fleet_in_mode("normal");
      if (!merged) ::usleep(150 * 1000);
    }
  }
  if (!merged)
    die("fleet never merged back to normal mode after evs_ctl merge-all");
  if (run({evs_top, "--config", config_paths[0], "--once",
           "--expect-converged", "--timeout-ms", "5000"}) != 0)
    die("evs_top does not see the healed fleet as converged");
  // The accepted commands are visible on the admin plane's own counters.
  if (!contains_after(admin_get(layout.admin[0], "/metrics"), 0,
                      "\"admin.commands_ok\":"))
    die("admin.commands_ok missing from /metrics after merge-all");
  std::fprintf(stderr,
               "ok: evs_ctl merge-all healed the e-view at every node\n");

  // Let each node's periodic trace flush cover the now-quiescent run, so
  // the victim's dump includes every multicast it sent.
  ::usleep(500 * 1000);

  // 3. SIGKILL node 2; survivors must install the 2-view {0,1}.
  const auto kill_offset = fleet.offsets();
  fleet.kill9(2);
  if (!fleet.await(60000, [&]() {
        return fleet.printed({0, 1}, survivor_pair, kill_offset);
      }))
    die("survivors never installed the 2-view after the kill");
  std::fprintf(stderr, "ok: survivors installed the 2-view\n");

  // 4. Graceful shutdown of the survivors.
  fleet.shutdown({0, 1});
  std::fprintf(stderr, "ok: survivors exited cleanly\n");

  // 5. The union of the three traces passes the view-synchrony checker,
  //    and the cross-process span correlation runs over the same union.
  //    EVS_LOOPBACK_ARTIFACTS=<dir> keeps the span JSON for CI upload.
  std::vector<std::string> traces;
  for (int i = 0; i < kNodes; ++i) {
    const std::string path =
        dir + "/evs_node-site" + std::to_string(i) + ".trace.jsonl";
    if (::access(path.c_str(), R_OK) != 0) die("missing trace: " + path);
    traces.push_back(path);
  }
  const char* artifacts_env = std::getenv("EVS_LOOPBACK_ARTIFACTS");
  const std::string artifacts = artifacts_env != nullptr ? artifacts_env : dir;
  const std::string spans_json = artifacts + "/loopback-spans.json";
  const std::string spans_chrome = artifacts + "/loopback-flows.json";
  if (run({trace_check, "--merge", "--spans-json", spans_json,
           "--spans-chrome", spans_chrome, traces[0], traces[1],
           traces[2]}) != 0)
    die("trace_check found violations in the merged traces");
  std::ifstream spans_in(spans_json);
  std::string spans_body((std::istreambuf_iterator<char>(spans_in)),
                         std::istreambuf_iterator<char>());
  if (!contains_after(spans_body, 0, "\"view_changes\":[{"))
    die("span correlation produced no view-change phase breakdown");
  std::fprintf(stderr, "ok: merged traces pass trace_check + span analysis\n");

  // Success: clean up the scratch directory.
  remove_tree(dir);
  std::printf("PASS\n");
  return 0;
}
