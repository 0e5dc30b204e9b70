"""A three-node fleet on loopback: configs, processes, scrapes and the load
generator, for run.py.

Every node is one process (evs_node, or the traced fleet_host) hosting the
same `group` lines, with a UDP peer port, an admin (HTTP) port and a svc
front door. Scrapes read /metrics and /status over the admin plane and
/proc/<pid> directly; run.py takes them at phase boundaries only.
"""

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import time

SITES = 3
LOCALHOST = "127.0.0.1"
# With at least SITES + 1 CPUs, each node and the generator get a CPU of
# their own, so they do not queue behind each other.
PIN = len(os.sched_getaffinity(0)) > SITES


def pin(pid, slot):
    if PIN:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(pid, {cpus[slot % len(cpus)]})


def now_ns():
    return time.monotonic_ns()


def free_ports(count):
    """`count` distinct loopback ports that are free for both TCP and UDP
    right now, from a random base (ports are not a workload input) below
    the kernel's ephemeral range. A client socket cannot then take the port
    of a node that is down for a restart: a connect to that closed port
    from the same local port connects the socket to itself."""
    with open("/proc/sys/net/ipv4/ip_local_port_range") as f:
        ephemeral_low = int(f.read().split()[0])
    rng = random.SystemRandom()
    while True:
        base = rng.randrange(1024, ephemeral_low - count)
        socks = []
        try:
            for port in range(base, base + count):
                for kind in (socket.SOCK_STREAM, socket.SOCK_DGRAM):
                    s = socket.socket(socket.AF_INET, kind)
                    socks.append(s)
                    s.bind((LOCALHOST, port))
            return list(range(base, base + count))
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()


def config_text(site, ports, groups, incarnation=1, store_dir=None):
    """The node config for `site`; `ports` holds (peer, admin, svc) ports
    per site and `groups` the (id, object) lines every node hosts."""
    lines = ["self %d" % site, "incarnation %d" % incarnation]
    for kind, offset in (("peer", 0), ("admin", 1), ("svc", 2)):
        for s in range(SITES):
            lines.append("%s %d %s:%d" % (kind, s, LOCALHOST, ports[s][offset]))
    if store_dir:
        lines.append("store %s" % store_dir)
    for gid, obj in groups:
        lines.append("group %d %s" % (gid, obj))
    return "\n".join(lines) + "\n"


def http_get(port, path, timeout=2.0):
    conn = http.client.HTTPConnection(LOCALHOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise OSError("GET %s on %d: HTTP %d" % (path, port, resp.status))
        return json.loads(body)
    finally:
        conn.close()


def udp_rcvbuf_errors():
    """Datagrams the kernel dropped on full receive buffers, in this
    network namespace (/proc/net/snmp Udp RcvbufErrors)."""
    with open("/proc/net/snmp") as f:
        rows = [line.split() for line in f if line.startswith("Udp:")]
    return int(rows[1][rows[0].index("RcvbufErrors")])


def proc_stats(pid):
    """CPU seconds (user + system) and peak RSS in MiB of a live process."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    cpu_s = (int(fields[11]) + int(fields[12])) / ticks
    hwm_mb = 0.0
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                hwm_mb = int(line.split()[1]) / 1024.0
    return cpu_s, hwm_mb


class Node:
    def __init__(self, site, proc, incarnation, log_path, spans):
        self.site = site
        self.proc = proc
        self.incarnation = incarnation
        self.log_path = log_path
        self.spans = spans  # traced host's span file prefix, else None


class Fleet:
    """Spawns and tears down the three nodes of one set-up."""

    def __init__(self, bin_dir, run_dir, groups, durable, traced):
        self.bin_dir = bin_dir
        self.run_dir = run_dir
        self.groups = groups
        self.traced = traced
        os.makedirs(run_dir, exist_ok=True)
        ports = free_ports(3 * SITES)
        self.ports = [ports[3 * s:3 * s + 3] for s in range(SITES)]
        self.store_dirs = [
            os.path.join(run_dir, "store%d" % s) if durable else None
            for s in range(SITES)]
        self.nodes = [None] * SITES
        self.spawns = 0

    def admin_port(self, site):
        return self.ports[site][1]

    def svc_addr(self, site):
        return "%s:%d" % (LOCALHOST, self.ports[site][2])

    def config_path(self, site, incarnation):
        return os.path.join(self.run_dir, "site%d-inc%d.conf" % (site, incarnation))

    def write_config(self, site, incarnation):
        path = self.config_path(site, incarnation)
        with open(path, "w") as f:
            f.write(config_text(site, self.ports, self.groups, incarnation,
                                self.store_dirs[site]))
        return path

    def spawn(self, site, incarnation=1):
        config = self.write_config(site, incarnation)
        self.spawns += 1
        tag = "site%d-%d" % (site, self.spawns)
        spans = os.path.join(self.run_dir, tag) if self.traced else None
        if self.traced:
            argv = [os.path.join(self.bin_dir, "fleet_host"), "--config", config,
                    "--spans", spans]
        else:
            argv = [os.path.join(self.bin_dir, "evs_node"), "--config", config]
        log_path = os.path.join(self.run_dir, tag + ".log")
        with open(log_path, "w") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=self.run_dir)
        pin(proc.pid, site)
        self.nodes[site] = Node(site, proc, incarnation, log_path, spans)
        return self.nodes[site]

    def start(self):
        for site in range(SITES):
            self.spawn(site)

    def status(self, site):
        return http_get(self.admin_port(site), "/status", timeout=0.5)

    def full_view(self, site):
        """True when `site` shows all SITES members in every hosted group."""
        try:
            status = self.status(site)
        except (OSError, ValueError, http.client.HTTPException):
            return False
        groups = status.get("groups") or [{"node": status.get("node")}]
        return len(groups) == len(self.groups) and all(
            g.get("node") and len(g["node"].get("members", [])) == SITES
            for g in groups)

    def await_full_views(self, sites, deadline_s):
        end = time.monotonic() + deadline_s
        pending = set(sites)
        while pending and time.monotonic() < end:
            pending = {s for s in pending if not self.full_view(s)}
            for s in pending:
                if self.nodes[s].proc.poll() is not None:
                    raise RuntimeError("site %d exited during set-up (see %s)"
                                       % (s, self.nodes[s].log_path))
            if pending:
                time.sleep(0.001)
        return not pending

    def scrape(self, site):
        """One scrape of a live node: metrics, status and /proc."""
        node = self.nodes[site]
        metrics = http_get(self.admin_port(site), "/metrics")
        status = self.status(site)
        cpu_s, hwm_mb = proc_stats(node.proc.pid)
        return {"site": site, "pid": node.proc.pid, "t_ns": now_ns(),
                "metrics": metrics, "status": status, "cpu_s": cpu_s,
                "hwm_mb": hwm_mb}

    def kill(self, site):
        node = self.nodes[site]
        t = now_ns()
        node.proc.send_signal(signal.SIGKILL)
        node.proc.wait()
        return t

    def stop(self):
        """SIGTERM every live node, then wait; a node that does not exit
        within 10 s is killed."""
        live = [n for n in self.nodes if n is not None and n.proc.poll() is None]
        for n in live:
            n.proc.send_signal(signal.SIGTERM)
        for n in live:
            try:
                n.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                n.proc.kill()
                n.proc.wait()

    def dead(self):
        """Sites whose current process has exited."""
        return [n.site for n in self.nodes
                if n is not None and n.proc.poll() is not None]


class Generator:
    """Runs fleet_gen; load phases may run in the background."""

    def __init__(self, bin_dir, run_dir, kind, seed):
        self.path = os.path.join(bin_dir, "fleet_gen")
        self.run_dir = run_dir
        self.common = ["--kind", kind, "--seed", str(seed)]
        self.id_base = 1

    def _ids(self, count):
        base = self.id_base
        self.id_base += count
        return ["--id-base", str(base)]

    def start_load(self, name, addr, mode, ms, conns, keys, rate=0,
                   put_pct=0, think_us=0, quickack=False):
        out = os.path.join(self.run_dir, name + ".ops")
        argv = [self.path, "load", "--addr", addr, "--mode", mode,
                "--ms", str(int(ms)), "--conns", str(conns), "--keys", str(keys),
                "--put-pct", str(put_pct), "--quickack", str(int(quickack)),
                "--out", out] + self.common
        argv += (["--rate", str(rate)] if mode == "open" else
                 ["--think-us", str(think_us)])
        # Ids never repeat within a run: at most 1e8 requests per phase.
        argv += self._ids(100_000_000)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        pin(proc.pid, SITES)
        return proc, out

    @staticmethod
    def finish(proc):
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError("fleet_gen load failed: %s" % out.strip())
        return json.loads(out.strip().splitlines()[-1])

    def probe(self, addr, op="write"):
        """One write (kv: a put to key 0) or LogTail, retried until Ok;
        the result carries the op's id."""
        op_id = self.id_base
        argv = [self.path, "probe", "--addr", addr, "--op", op] + self.common
        argv += self._ids(1)
        res = subprocess.run(argv, capture_output=True, text=True, timeout=30)
        try:
            out = json.loads(res.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            out = {"ok": False}
        out["id"] = op_id
        return out

    def verify(self, addrs, lines, name, tails=True):
        path = os.path.join(self.run_dir, name + ".verify")
        with open(path, "w") as f:
            for line in lines:
                f.write(" ".join(str(x) for x in line) + "\n")
        argv = [self.path, "verify", "--in", path,
                "--tails", "1" if tails else "0"] + self.common
        for a in addrs:
            argv += ["--addr", a]
        argv += self._ids(len(lines) * len(addrs) + 16)
        res = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise RuntimeError("fleet_gen verify failed: %s" % res.stdout.strip())
        return json.loads(res.stdout.strip().splitlines()[-1])
