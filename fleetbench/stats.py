"""Pure helpers for run.py: percentiles, outage gaps, counter windows."""


def percentile(sorted_values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil(n * p / 100)
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def median(values):
    return percentile(sorted(values), 50)


def interquartile_mean(values):
    """Mean of the values left after dropping the lowest and the highest
    quarter: steadier than the median on a few samples, and unmoved by a
    single outlier."""
    v = sorted(values)
    cut = len(v) // 4
    kept = v[cut:len(v) - cut] or v
    return sum(kept) / len(kept) if kept else 0.0


def highest_percentile(count, candidates=(50, 90, 99, 99.9, 99.99)):
    """The highest candidate percentile with at least ten samples beyond
    it, or None when even the median has fewer."""
    best = None
    for p in candidates:
        if round(count * (100 - p) / 100, 6) >= 10:  # 100 - 99.9 is inexact
            best = p
    return best


def longest_gap(times, lo, hi):
    """Longest stretch of [lo, hi] that holds no time of `times` (ascending),
    counting the edges of the window as its limits: the outage a client
    saw between two consecutive Ok replies, clipped to the fault window."""
    if hi <= lo:
        return 0
    prev = lo
    longest = 0
    for t in times:
        if t <= lo:
            continue
        if t >= hi:
            break
        longest = max(longest, t - prev)
        prev = t
    return max(longest, hi - prev)


def window_total(snapshots, first, last, value):
    """Sum over processes of how much `value(snapshot)` grew between
    snapshot indices `first` and `last` (inclusive).

    Snapshots are dicts with "pid"; a process whose first snapshot in the
    window is not at index `first` started inside it, so its counters grew
    from zero. Each process contributes its last snapshot in the window,
    which for a killed process is the one taken just before the kill."""
    start = {}
    end = {}
    for i in range(first, last + 1):
        for snap in snapshots[i]:
            pid = snap["pid"]
            if pid not in start:
                start[pid] = value(snap) if i == first else 0
            end[pid] = value(snap)
    return sum(end[pid] - start[pid] for pid in end)
