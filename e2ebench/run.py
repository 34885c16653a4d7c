#!/usr/bin/env python3
"""End-to-end benchmark for the Nebula simulator.

Builds the benchmark binary (e2ebench/nebula_e2e.cpp, linked against ../src)
into .bench_build/, runs one workload, checks its outputs and prints every
metric by name with its unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a separate traced run that also writes its spans to
.bench_build/traces/.

Usage, from the repository root:

    python3 e2ebench/run.py --workload har-faulty --seed 1 --seconds 20 --trace 0

Workloads, metrics and the recorded seeds are described in e2ebench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("har-faulty", "cifar-resnet", "har-continuous")
# The library's env-driven sinks: end-to-end numbers are taken without them.
OBS_ENV = ("NEBULA_TRACE", "NEBULA_EVENTS", "NEBULA_TIMELINE",
           "NEBULA_OBS_PORT", "NEBULA_METRICS")
TIME_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds nebula_e2e; returns its path."""
    if not os.path.isfile(os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to e2ebench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "nebula_e2e")


def clean_env():
    env = dict(os.environ)
    for var in OBS_ENV:
        if env.pop(var, None) is not None:
            log("note: %s cleared for the benchmark run" % var)
    return env


# ---- Metrics -------------------------------------------------------------------

def pooled(episodes, key):
    out = []
    for e in episodes:
        out.extend(e["series"].get(key, []))
    return out


def summed_counts(episodes):
    total = {}
    for e in episodes:
        for k, v in e["counts"].items():
            total[k] = total.get(k, 0) + v
    return total


def end_to_end(raw, notes):
    eps = raw["episodes"]
    m = {}

    def timing(name, key, with_tail):
        values = pooled(eps, key)
        m[name + "_p50_ms"] = (stats.median(values), "ms")
        if with_tail:
            pct, value, n = stats.tail(values)
            m[name + "_tail_ms"] = (value, "ms")
            notes.append("%s_tail_ms is p%g of %d samples" % (name, pct, n))
        else:
            notes.append("%s_p50_ms is over %d samples" % (name, len(values)))

    m["setup_s"] = (stats.median([e["setup_s"] for e in eps]), "s")
    notes.append("setup_s is the median of %d set-ups" % len(eps))
    timing("round", "round_ms", True)
    timing("fedavg_round", "fedavg_round_ms", False)
    timing("heterofl_round", "heterofl_round_ms", False)
    # Completed updates per second of Nebula round time, per episode; the
    # median over episodes keeps one stalled episode from moving it.
    m["updates_per_s"] = (stats.median(
        [e["counts"]["completed"] / (sum(e["series"]["round_ms"]) / 1e3)
         for e in eps]), "1/s")
    counts = summed_counts(eps)
    timing("adapt", "adapt_ms", True)
    timing("infer", "infer_ms", True)
    # Means over the run's instances: deterministic for a seed, because the
    # episode count is fixed by --seconds.
    m["accuracy"] = (sum(e["accuracy"] for e in eps) / len(eps), "ratio")
    m["comm_mb_per_round"] = (
        sum(e["comm_mb_per_round"] for e in eps) / len(eps), "MB")
    m["success_frac"] = (1.0 - stats.failed_frac(counts), "ratio")
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    return m


def per_layer(raw, notes):
    ref, traced, single = raw["episodes"]
    rounds = ref["counts"]["nebula_rounds"]
    c = ref["counts"]
    rc = ref["round_counters"]
    ec = ref["episode_counters"]
    med = lambda e, key: stats.median(e["series"][key])  # noqa: E731
    m = {
        "data.env_build_s": (ref["env_build_s"], "s"),
        "data.env_step_ms": (med(ref, "env_step_ms"), "ms"),
        "core.offline_s": (ref["offline_s"], "s"),
        "core.offline.pretrain_s": (ref["offline_pretrain_s"], "s"),
        "core.offline.ability_s": (ref["offline_ability_s"], "s"),
        "baselines.fedavg.pretrain_s": (ref["fedavg_pretrain_s"], "s"),
        "baselines.heterofl.pretrain_s": (ref["heterofl_pretrain_s"], "s"),
        "core.round.train_ms": (med(ref, "phase_train_ms"), "ms"),
        "core.round.derive_ms": (med(ref, "phase_derive_ms"), "ms"),
        "core.round.validate_ms": (med(ref, "phase_validate_ms"), "ms"),
        "core.round.aggregate_ms": (med(ref, "phase_aggregate_ms"), "ms"),
        "core.derive_ms": (med(ref, "derive_ms"), "ms"),
        "core.selector_forwards_per_round":
            (rc["selector.forwards"] / rounds, "count"),
        "core.ingest.rejected_structural_per_round":
            (c["rejected_structural"] / rounds, "count"),
        "core.ingest.rejected_norm_per_round":
            (c["rejected_norm"] / rounds, "count"),
        "core.ingest.rejected_robust_per_round":
            (c["rejected_robust"] / rounds, "count"),
        "core.ingest.probation_per_round": (c["probation"] / rounds, "count"),
        "sim.retries_per_round": (c["retries"] / rounds, "count"),
        "sim.dropped_per_round": (c["dropped"] / rounds, "count"),
        "sim.overhead_mb_per_round":
            (c["overhead_bytes"] / (1024.0 * 1024.0) / rounds, "MB"),
        "nn.conv.calls_per_round":
            ((rc["conv.fwd_calls"] + rc["conv.bwd_calls"]) / rounds, "count"),
        "tensor.gemm_calls_per_round": (rc["gemm.calls"] / rounds, "count"),
        "parallel.regions_per_round": (rc["pool.regions"] / rounds, "count"),
        "parallel.inline_share":
            (ec["pool.regions_inline"] / max(1, ec["pool.regions"]), "ratio"),
        "parallel.setup_speedup": (single["setup_s"] / ref["setup_s"], "x"),
        "parallel.round_speedup":
            (med(single, "round_ms") / med(ref, "round_ms"), "x"),
        "parallel.adapt_speedup":
            (med(single, "adapt_ms") / med(ref, "adapt_ms"), "x"),
        "obs.recorder_ratio": (stats.median(raw["recorder_on_ms"]) /
                               stats.median(raw["recorder_off_ms"]), "x"),
        "obs.trace_overhead_ratio": (traced["wall_s"] / ref["wall_s"], "x"),
    }
    for name, value in raw["probes"].items():
        m[name] = (value, "us")
    notes.append("speedups are pool-1 / pool-%d times" % ref["pool"])
    return m


# ---- Checks --------------------------------------------------------------------

def check(raw, expected_path, notes):
    """Output checks beyond the per-round ones nebula_e2e makes. Returns the
    list of violations."""
    eps = raw["episodes"]
    bad = []
    for e in eps:
        bad.extend(e["violations"])
    # Instance 0 is a pure function of the seed: every episode of it (the
    # trace run's pool-1 pass included) must agree, and match the recorded
    # values when the seed has them.
    first = [e for e in eps if e["instance"] == 0]
    for e in first[1:]:
        for key in ("accuracy", "comm_mb_per_round"):
            if e[key] != first[0][key]:
                bad.append("pool-%d %s %r != pool-%d %r" % (
                    e["pool"], key, e[key], first[0]["pool"], first[0][key]))
    try:
        with open(expected_path) as f:
            expected = json.load(f)
    except OSError:
        expected = {}
    kernel = raw["context"]["gemm_kernel"]
    want = expected.get(kernel, {}).get(raw["workload"], {}).get(str(raw["seed"]))
    if want is None:
        notes.append("no recorded values for seed %d on kernel %s"
                     % (raw["seed"], kernel))
    else:
        for key in ("accuracy", "comm_mb_per_round"):
            if first[0][key] != want[key]:
                bad.append("instance 0 %s %r != recorded %r"
                           % (key, first[0][key], want[key]))
        notes.append("instance 0 matches the recorded accuracy and "
                     "comm_mb_per_round")
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    start = time.monotonic()
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    trace_dir = os.path.join(root, ".bench_build", "traces")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    # One file set per workload and mode: each run overwrites the last, so
    # the traces left behind stay bounded however many seeds are run.
    stem = "%s-%d" % (args.workload, args.trace)
    out = os.path.join(build_dir, "raw-%s.json" % stem)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    spans_path = os.path.join(trace_dir, stem + "-spans.json")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--spans", spans_path,
                "--lib-trace", os.path.join(trace_dir, stem + "-nebula.json")]
    budget = TIME_LIMIT_S - (time.monotonic() - start)
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(cmd, env=clean_env(), timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        log("nebula_e2e exceeded the time limit")
        return 1
    if proc.returncode != 0:
        log("nebula_e2e failed with exit code %d" % proc.returncode)
        return 1
    with open(out) as f:
        raw = json.load(f)

    notes = []
    violations = check(raw, os.path.join(HERE, "expected.json"), notes)
    metrics = (per_layer if args.trace else end_to_end)(raw, notes)
    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)["spans"]
        for name, us in sorted(stats.self_times(spans).items()):
            print("self %-32s %12.3f ms" % (name, us / 1e3))

    counts = summed_counts(raw["episodes"])
    attempted = counts.get("calls", 0) + counts.get("nebula_rounds", 0)
    failed = len(violations)  # a call that throws is a violation too
    ctx = raw["context"]
    print("context " + json.dumps(ctx, sort_keys=True))
    for note in notes:
        print("note " + note)
    for v in violations:
        print("VIOLATION " + v)
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
