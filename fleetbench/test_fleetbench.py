"""Tests of the fleet benchmark itself.

    python3 fleetbench/test_fleetbench.py            # all, incl. smoke runs
    python3 fleetbench/test_fleetbench.py Helpers    # pure helpers only

The config and smoke tests build the benchmark first (as run.py does) and
start real fleets on loopback; a smoke run of each workload takes about ten
seconds per trace mode.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fleet  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class Helpers(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([], 50), 0.0)

    def test_interquartile_mean_drops_the_outer_quarters(self):
        self.assertEqual(stats.interquartile_mean([1, 2, 3, 4]), 2.5)
        self.assertEqual(stats.interquartile_mean([1, 2, 3, 4, 100, 0, 2, 3]),
                         2.5)
        self.assertEqual(stats.interquartile_mean([7]), 7)
        self.assertEqual(stats.interquartile_mean([]), 0.0)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50)
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(999), 90)
        self.assertEqual(stats.highest_percentile(1000), 99)
        self.assertEqual(stats.highest_percentile(10000), 99.9)

    def test_longest_gap_on_a_synthetic_reply_stream(self):
        # Ok replies every 10 units, then nothing from 100 to 250.
        replies = list(range(0, 101, 10)) + list(range(250, 400, 10))
        self.assertEqual(stats.longest_gap(replies, 95, 300), 150)
        # The window clips the gap: the fault began at 180.
        self.assertEqual(stats.longest_gap(replies, 180, 300), 70)
        # No reply inside the window: the whole window is the outage.
        self.assertEqual(stats.longest_gap(replies, 120, 200), 80)
        # Steady stream: the longest gap is the reply spacing.
        self.assertEqual(stats.longest_gap(replies, 0, 90), 10)
        self.assertEqual(stats.longest_gap(replies, 50, 50), 0)

    def test_window_total_follows_restarted_processes(self):
        def snap(pid, v):
            return {"pid": pid, "v": v}
        rounds = [
            [snap(1, 10), snap(2, 5)],   # window start
            [snap(1, 20), snap(2, 9)],   # before pid 2 is killed
            [snap(1, 30), snap(3, 4)],   # pid 3 restarted in its place
            [snap(1, 40), snap(3, 6)],   # window end
        ]
        total = stats.window_total(rounds, 0, 3, lambda s: s["v"])
        self.assertEqual(total, (40 - 10) + (9 - 5) + (6 - 0))
        self.assertEqual(stats.window_total(rounds, 2, 3, lambda s: s["v"]),
                         (40 - 30) + (6 - 4))


class Configs(unittest.TestCase):
    def test_generated_configs_load_through_the_node_parser(self):
        bin_dir = run.build()
        ports = [[20000 + 3 * s + k for k in range(3)] for s in range(fleet.SITES)]
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, wl in sorted(run.WORKLOADS.items()):
                bench = run.Bench(name, 1, 1, False, bin_dir, tmp)
                for site in range(fleet.SITES):
                    path = os.path.join(tmp, "%s-%d.conf" % (name, site))
                    store = os.path.join(tmp, "store") if wl["durable"] else None
                    with open(path, "w") as f:
                        f.write(fleet.config_text(site, ports, bench.groups, 2,
                                                  store))
                    paths.append((path, site, len(bench.groups),
                                  wl["shards"], wl["durable"]))
            res = subprocess.run(
                [os.path.join(bin_dir, "fleet_config_check")] +
                [p for p, *_ in paths], capture_output=True, text=True)
            self.assertEqual(res.returncode, 0, res.stdout)
            lines = res.stdout.splitlines()
            for (path, site, groups, shards, durable), line in zip(paths, lines):
                self.assertEqual(
                    line, "ok %s self=%d peers=3 groups=%d shards=%d store=%d"
                    % (path, site, groups, shards, 1 if durable else 0))


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


class Smoke(unittest.TestCase):
    """A tiny-length run of every workload prints every declared metric,
    by name and with its unit, in the report and in the JSON line."""

    def run_workload(self, workload, trace):
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        return res.stdout.splitlines()

    def test_every_workload_prints_every_metric(self):
        spec = declared_metrics()
        for wl in spec["workloads"]:
            for trace, key, tag in ((0, "end_to_end", "e2e"),
                                    (1, "per_layer", "layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    lines = self.run_workload(wl["name"], trace)
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    for m in spec[key]:
                        self.assertIn(m["name"], result["metrics"])
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])
                        if not m["name"].startswith("traced."):
                            self.assertTrue(any(
                                line.split()[:2] == [tag, m["name"]] and
                                (" %s " % m["unit"]) in line for line in lines),
                                "%s %s not printed" % (tag, m["name"]))


if __name__ == "__main__":
    unittest.main()
