#!/usr/bin/env python3
"""Gate deterministic bench counters against a committed BENCH_*.json.

Usage:
  bench_diff.py COMMITTED.json FRESH.json COUNTER [COUNTER ...]

Both files are Google Benchmark JSON output. Every benchmark row in FRESH
must have a row of the same name in COMMITTED, and each named COUNTER must
be equal in the two rows, bit for bit. Counters like frames or wire bytes
per multicast come out of a seeded simulation, so any difference is a
behaviour change, not noise. Exits non-zero on any mismatch.
"""
import json
import sys


def rows(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b for b in data["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}


def main(argv):
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    committed, fresh, counters = rows(argv[1]), rows(argv[2]), argv[3:]
    if not fresh:
        print(f"no benchmark rows in {argv[2]}", file=sys.stderr)
        return 1
    failures = 0
    for name, row in sorted(fresh.items()):
        base = committed.get(name)
        if base is None:
            print(f"FAIL {name}: no committed row")
            failures += 1
            continue
        for counter in counters:
            want, got = base.get(counter), row.get(counter)
            if want is None or got is None or want != got:
                print(f"FAIL {name} {counter}: committed {want}, got {got}")
                failures += 1
            else:
                print(f"ok   {name} {counter} = {got!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
