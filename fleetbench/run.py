#!/usr/bin/env python3
"""Fleet benchmark: three nodes on loopback UDP, driven through the svc
front door by a seeded single-threaded generator.

    python3 fleetbench/run.py --workload kv_read_mostly --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout. The first run builds the node and the
benchmark's binaries in Release under .bench_build/fleetbench (CMake,
fleetbench/CMakeLists.txt). One run:

  1. sets the fleet up SETUPS times and keeps the last (setup_s is the
     median), each time from fresh processes and, for the durable
     workload, fresh store directories;
  2. runs the workload's phases: an open-loop phase at a fixed rate and
     a closed-loop phase with one request in flight per connection. Faults
     (kill -9 / restart of a follower) run inside durable_churn's open
     loop; the volatile workloads run theirs, each under its own small
     load, on the set-up fleets before the last (see Bench.setup);
  3. checks every output (Bench.verify), stops the fleet and prints a
     report, then one JSON line.

--trace 0 runs the production node binary (evs_node) and reports the
end-to-end metrics. --trace 1 runs the benchmark's traced host
(fleet_host), which times calls into the svc router, each group's
message handler and the event loop's timers, and reports the per-layer
metrics. Without --trace, both runs are made and the report sets the
traced end-to-end numbers beside the untraced ones; the difference is the
tracing overhead.

Exit status is 0 only when every correctness check passed; a failed check
is named on stderr and in the report.
"""

import argparse
import array
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fleet  # noqa: E402
import stats  # noqa: E402
from fleet import now_ns  # noqa: E402

SETUPS = 9
VALUE_BYTES = 64        # fleet_gen's value size, for the report
LATENCY_SAMPLES = 1000  # fewest samples in one latency window
# End-to-end metrics the report prints but the JSON line leaves out. The
# tails' run-to-run spread (IQR / median over seeds) was above the 0.25 a
# bound may be, and fail_ratio is 0 on a passing run; ok_ratio stands in.
REPORT_ONLY = ("p90_ms", "p99_ms", "fail_ratio")
FAULT_LOAD_S = 0.7   # volatile workloads: load run through each fault
FAULT_KEYS = 256     # volatile fault phase key space (keeps the state
                     # below one datagram, see fleetbench/README.md)

WORKLOADS = {
    # quickack: the generator ACKs every reply at once (see gen.cpp); off
    # where each connection carries thousands of requests a second and the
    # kernel's ACK timing is steady.
    # closed: (connections, think time in us). The closed loop keeps one
    # request in flight per connection and thinks between requests: on the
    # seed a follower that misses a datagram stalls for the rest of the
    # view, and followers miss them when the coordinator runs flat out.
    "kv_read_mostly": {
        "kind": "kv", "shards": 0, "durable": False, "front": 1,
        "rate": 20000, "conns": 4, "keys": 10000, "put_pct": 10, "closed": (4, 100),
        "quickack": False,
        "faults": [2] * 4, "fault_rate": 10000,
    },
    "durable_churn": {
        "kind": "log", "shards": 4, "durable": True, "front": 0,
        "rate": 200, "conns": 1, "keys": 256, "put_pct": 0, "closed": (1, 10000),
        "quickack": True,
        "faults": [1, 2] * 6,
    },
}

FIELDS = ("id", "kind", "key", "due", "sent", "last_sent", "done", "status",
          "attempts", "result")
GET, PUT = 1, 2
OP_PUT, OP_LOG_APPEND = 2, 6  # runtime::SvcOp codes in the host's spans
GRACE_NS = 3_000_000_000


class Failure(Exception):
    """A correctness check failed; args[0] names it."""


def build():
    """Configures (once) and builds the benchmark's binaries; returns the
    directory holding them."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("fleetbench: repository sources not found under %s"
                         % ROOT)
    build_dir = os.path.join(ROOT, ".bench_build", "fleetbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                raise SystemExit("fleetbench: configure failed, see " + log_path)
        cmd = ["cmake", "--build", build_dir, "--target", "fleetbench_all",
               "-j", str(min(4, os.cpu_count() or 1))]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise SystemExit("fleetbench: build failed, see " + log_path)
    return build_dir


def load_ops(path):
    words = array.array("Q")
    with open(path, "rb") as f:
        words.frombytes(f.read())
    return {name: words[i::len(FIELDS)] for i, name in enumerate(FIELDS)}


def read_words(path, width):
    words = array.array("Q")
    if os.path.exists(path):
        with open(path, "rb") as f:
            words.frombytes(f.read())
    return [words[i::width] for i in range(width)]


class Bench:
    """One measured run of a workload on one fleet."""

    def __init__(self, name, seed, seconds, traced, bin_dir, run_dir):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.bin_dir = bin_dir
        self.run_dir = run_dir
        self.rng = random.Random("%s/%d" % (name, seed))
        kind = self.wl["kind"]
        if kind == "log":
            self.groups = [(g, "log") for g in range(1, self.wl["shards"] + 1)]
        else:
            self.groups = [(0, "kv")]
        self.log = kind == "log"
        self.fleet = None
        self.fleets = []
        self.gen = None
        self.rounds = []   # scrape rounds: lists of per-node snapshots
        self.rcvbuf = []   # kernel UDP receive-buffer drops at each round
        self.marks = {}    # label -> index into rounds
        self.phases = {}   # name -> (ops, generator summary)
        self.faults = []
        self.setup_s = []
        self.probe_puts = set()
        self.rejoin_checks = 0
        self.checks = []
        self.loads = []    # generator processes started by load()

    # ------------------------------------------------------------ fleet --

    def setup_once(self, index):
        path = os.path.join(self.run_dir, "setup%d" % index)
        start = now_ns()
        f = fleet.Fleet(self.bin_dir, path, self.groups, self.wl["durable"],
                        self.traced)
        self.fleets.append(f)
        f.start()
        if not f.await_full_views(range(fleet.SITES), 20):
            raise Failure("setup.full_view")
        gen = fleet.Generator(self.bin_dir, path, self.wl["kind"], self.seed)
        probe = gen.probe(f.svc_addr(self.wl["front"]))
        if not probe["ok"]:
            raise Failure("setup.first_ok")
        return f, gen, probe, (probe["done_ns"] - start) / 1e9

    def setup(self):
        """Sets the fleet up SETUPS times and keeps the last one. The
        volatile workloads run their faults on the ones before it, the
        workload's fault list on each: on the seed a follower restarted
        under load may stall later in the view, and a volatile rejoin is a
        full transfer that only fits a small state."""
        for i in range(SETUPS):
            f, gen, probe, secs = self.setup_once(i)
            self.setup_s.append(secs)
            self.fleet, self.gen = f, gen
            if not self.log:
                self.probe_puts.add(probe["id"])
            if i + 1 < SETUPS and not self.wl["durable"]:
                self.phase_faults(i)
                self.verify()
            if i + 1 < SETUPS:
                f.stop()

    def scrape_round(self, label=None):
        snaps = []
        for site in range(fleet.SITES):
            node = self.fleet.nodes[site]
            if node is None or node.proc.poll() is not None:
                continue
            snaps.append(self.fleet.scrape(site))
        self.rounds.append(snaps)
        self.rcvbuf.append(fleet.udp_rcvbuf_errors())
        if label:
            self.marks[label] = len(self.rounds) - 1

    # ------------------------------------------------------------ phases --

    def front_addr(self):
        return self.fleet.svc_addr(self.wl["front"])

    def load(self, name, mode, seconds, keys, rate=0, quickack=None):
        conns, think_us = (self.wl["closed"] if mode == "closed"
                           else (self.wl["conns"], 0))
        proc, out = self.gen.start_load(
            name, self.front_addr(), mode, seconds * 1000, conns, keys,
            rate=rate, put_pct=self.wl["put_pct"],
            think_us=think_us,
            quickack=self.wl["quickack"] if quickack is None else quickack)
        self.loads.append(proc)
        return proc, out, now_ns()

    def finish_load(self, name, proc, out):
        summary = fleet.Generator.finish(proc)
        self.phases[name] = (load_ops(out), summary, self.fleet)

    def fault_cycle(self, site, kill_at_ns, down_s):
        """Kills `site` at `kill_at_ns`, restarts it `down_s` later and
        waits until it serves again."""
        time.sleep(max(0.0, (kill_at_ns - now_ns()) / 1e9))
        self.scrape_round()
        kill = self.fleet.kill(site)
        time.sleep(down_s)
        old = self.fleet.nodes[site]
        incarnation = old.incarnation if self.wl["durable"] else old.incarnation + 1
        restart = now_ns()
        node = self.fleet.spawn(site, incarnation)

        def failed(check):
            return Failure("%s: site %d exit status %s, see %s" % (
                check, site, node.proc.poll(), node.log_path))
        # A log shard serves only in a majority view, so its LogTail probe
        # is Ok only once the node rejoined one (the full view is awaited
        # after, untimed); a kv serves in any view, so its full view is
        # awaited first.
        if not self.log and not self.fleet.await_full_views([site], 10):
            raise failed("fault.rejoin_view")
        probe = self.gen.probe(self.fleet.svc_addr(site),
                               op="tail" if self.log else "write")
        if not probe["ok"]:
            raise failed("fault.rejoin_settled")
        if self.log and not self.fleet.await_full_views([site], 10):
            raise failed("fault.rejoin_view")
        if not self.log:
            self.probe_puts.add(probe["id"])
        self.scrape_round()
        if self.log and self.wl["durable"]:
            self.check_rejoin()
        return {"site": site, "kill": kill, "restart": restart,
                "rejoin": probe["done_ns"], "log": node.log_path}

    def kill_offset_s(self, slot_s):
        return slot_s * (0.1 + 0.1 * self.rng.random())

    def down_s(self):
        # Longer than the detector's 120 ms suspect timeout: the crash is
        # always noticed before the new incarnation arrives.
        return 0.2 + 0.05 * self.rng.random()

    def phase_faults(self, fleet_index):
        """Volatile workloads: before the measured load, one fault per
        slot under its own small load: kill a follower at a seeded offset
        into the slot, keep it down for a seeded time, restart it and wait
        until it serves again."""
        for k, site in enumerate(self.wl["faults"]):
            name = "fault%d-%d" % (fleet_index, k)
            # Replies ACKed at once: the outage is then the node's stall,
            # not the wait of a reply held for the next request (Nagle).
            proc, out, start = self.load(name, "open", FAULT_LOAD_S, FAULT_KEYS,
                                         rate=self.wl["fault_rate"],
                                         quickack=True)
            kill_at = start + int(self.kill_offset_s(FAULT_LOAD_S) * 1e9)
            fault = self.fault_cycle(site, kill_at, self.down_s())
            self.finish_load(name, proc, out)
            fault["phase"] = name
            self.faults.append(fault)

    def open_seconds(self):
        return self.seconds * (0.8 if self.wl["durable"] else 0.7)

    def closed_seconds(self):
        return self.seconds * (0.2 if self.wl["durable"] else 0.3)

    def phase_open(self):
        """The open loop. durable_churn splits it into one part per fault,
        each killing and restarting a follower while its appends run."""
        self.scrape_round("open_start")
        seconds = self.open_seconds()
        if not self.wl["durable"]:
            self.open_parts = ["open"]
            proc, out, _ = self.load("open", "open", seconds, self.wl["keys"],
                                     rate=self.wl["rate"])
            self.finish_load("open", proc, out)
        else:
            self.open_parts = []
            slot = seconds / len(self.wl["faults"])
            for k, site in enumerate(self.wl["faults"]):
                name = "open%d" % k
                self.open_parts.append(name)
                proc, out, start = self.load(name, "open", slot, self.wl["keys"],
                                             rate=self.wl["rate"])
                kill_at = start + int(self.kill_offset_s(slot) * 1e9)
                fault = self.fault_cycle(site, kill_at, self.down_s())
                self.finish_load(name, proc, out)
                fault["phase"] = name
                self.faults.append(fault)
        self.scrape_round("open_end")

    def phase_closed(self):
        proc, out, _ = self.load("closed", "closed", self.closed_seconds(),
                                 self.wl["keys"])
        self.finish_load("closed", proc, out)
        self.scrape_round("closed_end")

    # ------------------------------------------------------------ checks --

    def check(self, name, ok, detail=""):
        if not ok:
            detail += " (kernel udp receive-buffer drops at %s, now %d)" % (
                {k: self.rcvbuf[i] - self.rcvbuf_start
                 for k, i in self.marks.items()},
                fleet.udp_rcvbuf_errors() - self.rcvbuf_start)
        self.checks.append((name, bool(ok), detail))
        if not ok:
            raise Failure(name + (": " + detail if detail else ""))

    def replica_addrs(self):
        return [self.fleet.svc_addr(s) for s in range(fleet.SITES)]

    def check_rejoin(self):
        """After a rejoin: positions below the coordinator's shard tails read
        the same record at every replica."""
        status = self.fleet.status(0)
        shards = self.wl["shards"]
        lines = []
        for g in status["groups"]:
            log = g["node"]["log"]
            if log["local_tail"] == 0:
                continue
            for _ in range(10):
                local = self.rng.randrange(log["local_tail"])
                lines.append((local * shards + log["shard"], 0))
        res = self.gen.verify(self.replica_addrs(), lines, "rejoin%d" %
                              self.rejoin_checks, tails=False)
        self.rejoin_checks += 1
        self.check("log.rejoin_replicas_agree", res["mismatches"] == 0 and
                   res["unanswered"] == 0, verify_detail(res))

    def all_ops(self, current_fleet=True):
        return [ops for ops, _, f in self.phases.values()
                if f is self.fleet or not current_fleet]

    def verify(self):
        time.sleep(0.1)  # let followers apply the last ordered writes
        if self.log:
            self.verify_log()
        else:
            self.verify_kv()
        self.check("fleet.no_exit", not self.fleet.dead(),
                   "sites %s exited" % self.fleet.dead())

    def verify_log(self):
        acked = {}
        dups = 0
        for ops in self.all_ops():
            for op_id, done, pos in zip(ops["id"], ops["done"], ops["result"]):
                if done == 0:
                    continue
                if pos in acked:
                    dups += 1
                acked[pos] = op_id
        self.check("log.unique_positions", dups == 0,
                   "%d positions acked twice" % dups)
        sample = self.rng.sample(sorted(acked), min(300, len(acked)))
        res = self.gen.verify(self.replica_addrs(),
                              [(p, acked[p]) for p in sample], "final")
        self.check("log.readback", res["mismatches"] == 0 and
                   res["unanswered"] == 0, verify_detail(res))
        self.check("log.tails_agree", res["tails_agree"], str(res["tails"]))

    def verify_kv(self):
        puts = set()
        for ops in self.all_ops():
            for op_id, kind, key in zip(ops["id"], ops["kind"], ops["key"]):
                if kind == PUT:
                    puts.add((key, op_id))
        puts |= {(0, i) for i in self.probe_puts}
        bad = 0
        for ops in self.all_ops():
            for kind, key, done, got in zip(ops["kind"], ops["key"],
                                            ops["done"], ops["result"]):
                if kind == GET and done and got and (key, got) not in puts:
                    bad += 1
        self.check("kv.reads_were_put", bad == 0,
                   "%d reads returned a value never put to the key" % bad)
        keys = sorted({k for k, _ in puts})
        sample = self.rng.sample(keys, min(300, len(keys)))
        res = self.gen.verify(self.replica_addrs(), [(k,) for k in sample],
                              "final")
        self.check("kv.replicas_agree", res["mismatches"] == 0 and
                   res["unanswered"] == 0, verify_detail(res))
        never = [k for k, i in res["kv_ids"] if i and (k, i) not in puts]
        self.check("kv.value_was_put", not never,
                   "keys %s hold values never put to them" % never[:5])

    # --------------------------------------------------------------- run --

    def run(self):
        self.rcvbuf_start = fleet.udp_rcvbuf_errors()
        try:
            self.setup()
            self.phase_open()
            self.phase_closed()
            self.verify()
        finally:
            for proc in self.loads:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            for f in self.fleets:
                f.stop()
        return self

    # ----------------------------------------------------------- metrics --

    def op_counts(self):
        every = self.all_ops(current_fleet=False)
        attempted = sum(len(ops["id"]) for ops in every)
        ok = sum(sum(1 for d in ops["done"] if d) for ops in every)
        return attempted, ok

    def end_to_end(self):
        """name -> (value, unit, note)"""
        # Latency from the due time; an op never answered Ok counts as
        # answered at the end of the grace period. Percentiles are taken
        # per window of consecutive requests (>= LATENCY_SAMPLES and >= 0.5 s
        # of load each) and the median window is reported, so one stall
        # moves one window, not the run.
        rows = []
        for part in self.open_parts:
            ops, summary, _ = self.phases[part]
            cap = summary["end_ns"] + GRACE_NS
            rows += [(due, ((d if d else cap) - due) / 1e6)
                     for d, due in zip(ops["done"], ops["due"])]
        rows.sort()
        k = max(1, len(rows) // max(LATENCY_SAMPLES, self.wl["rate"] // 2))
        lat = [sorted(v for _, v in rows[i * len(rows) // k:
                                         (i + 1) * len(rows) // k])
               for i in range(k)]
        n = min(len(v) for v in lat)
        top = stats.highest_percentile(n)
        # Closed loop: Ok replies per second of busy time, the think time
        # taken out. Each connection has one request in flight, so that is
        # connections / latency; the latency is the interquartile mean,
        # which a handful of fsync stalls does not move.
        closed, _, _ = self.phases["closed"]
        conns, think_us = self.wl["closed"]
        closed_lat = [d - sent for sent, d in zip(closed["sent"], closed["done"])
                      if d]
        attempted, ok = self.op_counts()

        def open_pct(p):
            return stats.median([stats.percentile(v, p) for v in lat])
        windows = "median of %d windows of >= %d samples" % (len(lat), n)
        out = {
            "setup_s": (stats.median(self.setup_s), "s",
                        "median of %d set-ups" % len(self.setup_s)),
            "p50_ms": (open_pct(50), "ms", "open loop %d/s, %s"
                       % (self.wl["rate"], windows)),
            "p90_ms": (open_pct(90), "ms", windows),
            "p99_ms": (open_pct(99), "ms", "%s; highest percentile with >= 10 "
                       "samples beyond: p%s" % (windows, top)),
            "peak_ok_per_s": (conns * 1e9 / stats.interquartile_mean(closed_lat)
                              if closed_lat else 0.0, "1/s",
                              "closed loop, %d conns x 1 outstanding, think %d "
                              "us taken out: conns / interquartile mean of %d "
                              "Ok latencies" % (conns, think_us, len(closed_lat))),
            "ok_ratio": (ok / attempted, "ratio",
                         "%d Ok of %d attempted" % (ok, attempted)),
            "fail_ratio": ((attempted - ok) / attempted, "ratio",
                           "%d of %d attempted not Ok" % (attempted - ok,
                                                          attempted)),
            "peak_rss_mb": (max(s["hwm_mb"] for r in self.rounds for s in r),
                            "MiB", "max VmHWM over the nodes"),
        }
        outages, rejoins = self.fault_times()
        out["outage_ms"] = (stats.interquartile_mean(outages), "ms",
                            "interquartile mean of %d faults: %s"
                            % (len(outages), fmt_list(outages)))
        out["rejoin_s"] = (stats.interquartile_mean(rejoins), "s",
                           "interquartile mean of %d faults: %s"
                           % (len(rejoins), fmt_list(rejoins)))
        return out

    def fault_times(self):
        outages = []
        for f in self.faults:
            ops, summary, _ = self.phases[f["phase"]]
            # Kv reads are served locally and never stall; the outage is the
            # ordered writes'.
            times = sorted(d for d, k in zip(ops["done"], ops["kind"])
                           if d and (self.log or k == PUT))
            hi = min(f["rejoin"], summary["end_ns"])
            outages.append(stats.longest_gap(times, f["kill"], hi) / 1e6)
        rejoins = [(f["rejoin"] - f["restart"]) / 1e9 for f in self.faults]
        return outages, rejoins

    def per_layer(self):
        """name -> (value, unit, note) from the traced run."""
        first, last = self.marks["open_start"], self.marks["closed_end"]
        front = self.wl["front"]
        _, ok = self.window_ok()

        def total(value, sites=None):
            return stats.window_total(
                self.rounds, first, last,
                lambda s: value(s) if sites is None or s["site"] in sites else 0)

        def counters(s, suffix, groups=False):
            c = s["metrics"]["counters"]
            if groups:
                return sum(c.get("node.g%d.%s" % (g, suffix), 0)
                           for g, _ in self.groups)
            return c.get(suffix, 0)

        out = {}

        def per_op(name, numerator, what, unit="count"):
            out[name] = (numerator / ok if ok else 0.0, unit,
                         "%s %.0f / %d Ok ops" % (what, numerator, ok))

        per_op("vsync.frames_encoded_per_op",
               total(lambda s: counters(s, "frames_encoded", True)),
               "frames encoded")
        per_op("net.wire_bytes_per_op",
               total(lambda s: counters(s, "transport.bytes_sent")), "bytes sent",
               "B")
        per_op("net.datagrams_per_op",
               total(lambda s: counters(s, "transport.datagrams_sent")),
               "datagrams sent")
        per_op("net.syscalls_per_op",
               total(lambda s: counters(s, "transport.syscalls.sendmsg_calls") +
                     counters(s, "transport.syscalls.recvmsg_calls")),
               "sendmmsg+recvmmsg calls")
        deliver_ns = total(lambda s: counters(s, "bench.deliver_ns"), {0})
        out["node.deliver_us_per_op"] = (
            deliver_ns / 1e3 / ok if ok else 0.0, "us",
            "Node::on_message at site 0: %.0f us / %d Ok ops" % (deliver_ns / 1e3, ok))
        cpu0 = total(lambda s: s["cpu_s"], {0})
        out["node.cpu_us_per_op"] = (cpu0 * 1e6 / ok if ok else 0.0, "us",
                                     "site 0 CPU %.2f s / %d Ok ops" % (cpu0, ok))
        cpu12 = total(lambda s: s["cpu_s"], {1, 2}) / 2
        out["follower.cpu_us_per_op"] = (
            cpu12 * 1e6 / ok if ok else 0.0, "us",
            "mean follower CPU %.2f s / %d Ok ops" % (cpu12, ok))
        per_op("store.wal_bytes_per_op",
               total(lambda s: counters(s, "store.wal_bytes")), "WAL bytes", "B")
        per_op("store.fsyncs_per_op",
               total(lambda s: counters(s, "store.fsync_calls")), "fsyncs")
        shed = total(lambda s: counters(s, "svc.requests_shed"), {front})
        per_op("svc.shed_per_op", shed, "requests shed")

        end = self.rounds[self.marks["open_end"]]
        front_snap = next(s for s in end if s["site"] == front)
        site0 = next(s for s in self.rounds[last] if s["site"] == 0)

        def hist(snap, name, q="p99"):
            return snap["metrics"].get("histograms", {}).get(name, {}).get(q, 0.0)

        out["svc.admit_p99_us"] = (hist(front_snap, "svc.admit_us"), "us",
                                   "front door svc.admit_us histogram")
        out["store.sync_p99_us"] = (hist(site0, "store.sync_us"), "us",
                                    "site 0 store.sync_us histogram")
        out["app.apply_p99_us"] = (
            max(hist(site0, "node.g%d.svc.apply_us" % g) for g, _ in self.groups),
            "us", "site 0, max over groups of svc.apply_us")
        out["detector.suspicions"] = (
            total(lambda s: counters(s, "detector.suspicions", True)), "count",
            "all nodes and groups, measured phases")
        views = total(lambda s: counters(s, "views_installed", True), {0})
        out["vsync.views_installed"] = (
            1 + views / len(self.groups), "count",
            "views per group at site 0 over the measured phases (1 = none installed)")
        out["app.transfer_bytes"] = (
            total(lambda s: counters(s, "snapshot_bytes", True) +
                  counters(s, "delta_bytes_sent", True)), "B",
            "offer/chunk snapshot + delta bytes sent, all nodes")
        out["app.full_fallbacks"] = (
            total(lambda s: counters(s, "delta_full_fallbacks", True)), "count",
            "delta transfers that fell back to full state")
        out["vsync.buffer_peak"] = (
            max(counters(s, "node.g%d.buffer_peak" % g)
                for r in self.rounds[first:last + 1] for s in r
                for g, _ in self.groups), "count",
            "max unstable-buffer length over nodes and groups")
        drops = total(lambda s: sum(
            v for k, v in s["metrics"]["counters"].items()
            if k.startswith("transport.dropped_") or k in (
                "transport.send_errors", "transport.recv_errors")))
        out["net.drops"] = (drops, "count", "transport drops and errors, all nodes")
        out["net.rcvbuf_drops"] = (
            self.rcvbuf[last] - self.rcvbuf[first], "count",
            "datagrams the kernel dropped on full receive buffers "
            "(/proc/net/snmp), measured phases")
        out["store.recover_ms"] = (stats.median(self.recover_ms()) if self.faults
                                   else 0.0, "ms",
                                   "NetRuntime construction of restarted nodes")
        out.update(self.span_metrics())
        return out

    def window_ok(self):
        phases = self.open_parts + ["closed"]
        attempted = sum(len(self.phases[p][0]["id"]) for p in phases)
        ok = sum(sum(1 for d in self.phases[p][0]["done"] if d) for p in phases)
        return attempted, ok

    def recover_ms(self):
        values = []
        for f in self.faults:
            with open(f["log"]) as log:
                for line in log:
                    if line.startswith("boot "):
                        values.append(int(line.split("runtime_us=")[1]) / 1e3)
        return values

    def span_metrics(self):
        """Metrics of the open loop's requests from the front door's route
        spans, matched to the generator's records by trace id (= op id; the
        last span of a retried op is its Ok attempt)."""
        parts = [self.phases[p][:2] for p in self.open_parts]
        lo, hi = parts[0][1]["start_ns"], self.phases["closed"][1]["end_ns"]
        ids = set()
        for ops, _ in parts:
            ids.update(ops["id"])
        node = self.fleet.nodes[self.wl["front"]]
        trace, start, end, code = read_words(node.spans + ".route", 4)
        spans = {t: (a, b, c) for t, a, b, c in zip(trace, start, end, code)
                 if t in ids}
        route = sorted(b - a for a, b, _ in spans.values())
        order = sorted(b - a for a, b, c in spans.values()
                       if c >> 8 in (OP_PUT, OP_LOG_APPEND))
        outside, late = [], []
        e2e_sum = covered_sum = 0
        coverage = []
        fields = ("id", "due", "sent", "last_sent", "done")
        rows = [row for ops, _ in parts for row in zip(*(ops[f] for f in fields))]
        for op_id, due, sent, last_sent, done in rows:
            late.append(sent - due)
            span = spans.get(op_id)
            if not done or span is None:
                continue
            r = span[1] - span[0]
            outside.append(done - last_sent - r)
            e2e = done - due
            cov = min(e2e, (sent - due) + r)
            e2e_sum += e2e
            covered_sum += cov
            coverage.append(cov / e2e if e2e else 1.0)
        outside.sort()
        late.sort()
        lates = []
        for n in self.fleet.nodes:
            if n.spans is None:
                continue
            fire, lateness = read_words(n.spans + ".late", 2)
            lates += [x for t, x in zip(fire, lateness) if lo <= t <= hi]
        lates.sort()
        share = 1 - covered_sum / e2e_sum if e2e_sum else 0.0
        self.coverage_p50 = stats.median(coverage) if coverage else 0.0
        us = 1e3
        return {
            "svc.outside_p50_us": (stats.percentile(outside, 50) / us, "us",
                                   "client send..reply minus svc.route, %d matched" % len(outside)),
            "svc.outside_p99_us": (stats.percentile(outside, 99) / us, "us",
                                   "%d matched" % len(outside)),
            "svc.route_p50_us": (stats.percentile(route, 50) / us, "us",
                                 "ShardRouter::route..respond, %d spans" % len(route)),
            "svc.route_p99_us": (stats.percentile(route, 99) / us, "us",
                                 "%d spans" % len(route)),
            "evs.order_p50_us": (stats.percentile(order, 50) / us, "us",
                                 "route spans of ordered writes, %d spans" % len(order)),
            "evs.order_p99_us": (stats.percentile(order, 99) / us, "us",
                                 "%d spans" % len(order)),
            "client.late_p99_ms": (stats.percentile(late, 99) / 1e6, "ms",
                                   "generator send lateness, %d sends" % len(late)),
            "net.loop_late_p99_us": (stats.percentile(lates, 99) / us, "us",
                                     "1 ms probe timer, %d firings" % len(lates)),
            "trace.unaccounted_share": (share, "ratio",
                                        "client latency outside late+route spans; "
                                        "median coverage %.3f" % self.coverage_p50),
        }


def verify_detail(res):
    return "%d reads, %d mismatched, %d unanswered (per site %s) %s tails=%s" % (
        res["checked"], res["mismatches"], res["unanswered"],
        res["unanswered_at"], res["first_mismatch"], res["tails"])


def fmt_list(values):
    return "[" + ", ".join("%.4g" % v for v in values) + "]"


def main():
    # A SIGTERM unwinds like an error, so every node and generator this run
    # started is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args()
    bin_dir = build()
    run_dir = os.path.join(ROOT, ".bench_build", "runs", "%s-s%d-%d" % (
        args.workload, args.seed, os.getpid()))
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    benches = {}
    failure = None
    try:
        for traced in modes:
            b = Bench(args.workload, args.seed, args.seconds, traced, bin_dir,
                      os.path.join(run_dir, "traced" if traced else "plain"))
            benches[traced] = b
            b.run()
    except Failure as err:
        failure = str(err)
    report(args, benches, failure)
    if failure is None:  # a failed run's directory is kept for its logs
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if failure is None else 1


def report(args, benches, failure):
    wl = WORKLOADS[args.workload]
    print("# fleetbench %s seed=%d seconds=%g nproc=%d build=Release n=3 G=%s "
          "value=%dB open=%d/s over %d conns closed=%d conns x 1 think=%dus "
          "front=site%d store=%s faults=%s"
          % (args.workload, args.seed, args.seconds, os.cpu_count() or 0,
             wl["shards"] or 1, VALUE_BYTES, wl["rate"], wl["conns"],
             wl["closed"][0], wl["closed"][1], wl["front"],
             "on" if wl["durable"] else "off", wl["faults"]))
    for b in benches.values():
        for name, ok, detail in b.checks:
            print("check %-28s %s %s" % (name, "ok" if ok else "FAILED", detail))
    if failure is not None:
        print("check FAILED: %s" % failure)
        print("fleetbench: correctness check failed: %s" % failure,
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return
    metrics = {}
    plain, traced = benches.get(False), benches.get(True)
    e2e = {k: b.end_to_end() for k, b in benches.items()}
    for name in e2e[next(iter(e2e))]:
        cols = []
        for key in (False, True):
            if key in e2e:
                value, unit, note = e2e[key][name]
                cols.append("%s=%.6g %s" % ("traced" if key else "untraced",
                                            value, unit))
        if len(e2e) == 2 and e2e[False][name][0]:
            delta = e2e[True][name][0] / e2e[False][name][0] - 1
            cols.append("overhead %+.1f%%" % (100 * delta))
        print("e2e   %-24s %s  (%s)" % (name, "  ".join(cols),
                                       e2e[next(iter(e2e))][name][2]))
    if plain is not None:
        for name, (value, unit, _) in e2e[False].items():
            if name not in REPORT_ONLY:
                metrics[name] = {"value": value, "unit": unit}
    if traced is not None:
        layers = traced.per_layer()
        for name, (value, unit, note) in layers.items():
            print("layer %-28s %.6g %s  (%s)" % (name, value, unit, note))
        if traced.coverage_p50 < 0.9:
            print("FLAG  spans cover %.1f%% of the median request (< 90%%): "
                  "the time outside them is unaccounted" % (100 * traced.coverage_p50))
        tm = e2e[True]
        for name in ("p50_ms", "p90_ms", "p99_ms", "peak_ok_per_s"):
            layers["traced." + name] = (tm[name][0], tm[name][1], "")
        if plain is None:
            metrics = {}
        for name, (value, unit, _) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
    attempted = failed = 0
    for b in benches.values():
        a, ok = b.op_counts()
        attempted += a
        failed += a - ok
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
