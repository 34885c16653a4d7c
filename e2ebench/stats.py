"""Statistics and accounting helpers for the end-to-end benchmark.

Pure functions over plain lists and dicts, so they can be unit-tested
without building or running nebula_e2e (see test_stats.py).
"""

import math

# Candidate tail percentiles, highest first. A timing's tail is the highest
# of these that still has at least MIN_BEYOND samples above it. The ladder
# keeps to the conventional steps: on a box with CPU steal, intermediate
# steps such as p95 or p98 with barely ten samples beyond land in the burst
# region and swing by tens of percent from run to run.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return v[mid] if n % 2 else 0.5 * (v[mid - 1] + v[mid])


def _rank(n, pct):
    # The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from bumping an exact rank up by one.
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank: the smallest sample with at
    least pct% of the samples at or below it."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no samples")
    return v[_rank(len(v), pct) - 1]


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - _rank(n, pct)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it,
    or None when n is too small for any (fewer than 2 * MIN_BEYOND)."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def tail(values):
    """(percentile, value, sample count) of a timing's tail."""
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(
            "%d samples: a tail needs at least %d" % (len(values), 2 * MIN_BEYOND))
    return pct, nearest_rank(values, pct), len(values)


def failure_accounting(counts):
    """(attempted, failed) operations for the failed_frac accounting.

    A Nebula round contributes one operation per participant, and a
    participant that was dropped, rejected or cut counts as failed. Every
    other call (baseline rounds, adapt, infer, environment steps) is one
    operation, and a call that throws is failed. A Nebula round that throws
    is among the calls: its participants are unknown.
    """
    attempted = counts.get("participants", 0) + counts.get("calls", 0)
    failed = (counts.get("dropped", 0) + counts.get("rejected", 0) +
              counts.get("cut", 0) + counts.get("throws", 0))
    return attempted, failed


def failed_frac(counts):
    attempted, failed = failure_accounting(counts)
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by its direct children; overlapping children are merged first
    so shared time is not subtracted twice. `spans` is a list of dicts with
    id, parent (-1 for a root), name, start_us and end_us.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        intervals = sorted(
            (max(lo, c["start_us"]), min(hi, c["end_us"]))
            for c in children.get(s["id"], []))
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["name"]] = out.get(s["name"], 0.0) + (hi - lo) - covered
    return out
