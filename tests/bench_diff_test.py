#!/usr/bin/env python3
"""Self-test of the CI bench gate (tools/bench_diff.py).

Usage:
  bench_diff_test.py BENCH_DIFF.py COMMITTED.json

The gate must pass when the committed file is compared with itself, fail
when one wire_bytes_per_mc value differs, and fail when a fresh row has
no committed row of the same name. Exits non-zero if any case misbehaves.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

COUNTERS = ["net_msgs_per_mc", "frames_encoded_per_mc", "sim_ms_per_mc",
            "payload_copies_per_mc", "payloads_shared_per_mc",
            "wire_bytes_per_mc"]


def gate(tool, committed, fresh):
    res = subprocess.run([sys.executable, tool, committed, fresh] + COUNTERS,
                         capture_output=True, text=True)
    return res.returncode, res.stdout + res.stderr


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    tool, committed = argv[1], argv[2]
    with open(committed) as f:
        data = json.load(f)
    rows = [b for b in data["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"]
    assert rows, "no benchmark rows in " + committed

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        code, out = gate(tool, committed, committed)
        if code != 0:
            failures.append("identical files rejected:\n" + out)

        changed = copy.deepcopy(data)
        row = next(b for b in changed["benchmarks"] if "wire_bytes_per_mc" in b)
        row["wire_bytes_per_mc"] += 1
        code, out = gate(tool, committed, write("changed.json", changed))
        if code == 0 or "FAIL " + row["name"] + " wire_bytes_per_mc" not in out:
            failures.append("a changed wire_bytes_per_mc passed:\n" + out)

        # The committed file lacks one row the fresh run has.
        missing = copy.deepcopy(data)
        dropped = rows[-1]["name"]
        missing["benchmarks"] = [b for b in missing["benchmarks"]
                                 if b["name"] != dropped]
        code, out = gate(tool, write("missing.json", missing), committed)
        if code == 0 or "FAIL " + dropped + ": no committed row" not in out:
            failures.append("a fresh row missing from the committed file "
                            "passed:\n" + out)

    for f in failures:
        print("FAIL " + f)
    if not failures:
        print("ok: bench_diff passes identical rows and fails a changed "
              "counter and a missing committed row")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
