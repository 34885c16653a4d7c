#!/usr/bin/env python3
"""Perf-trajectory harness: distil benchmarks into BENCH_*.json trajectories.

Two suites, same label-keyed trajectory format:

* Kernels — runs ``bench_micro_kernels`` with ``--benchmark_format=json`` (or
  ingests a pre-recorded dump via ``--from-json``) and records the distilled
  numbers in ``BENCH_kernels.json`` at the repo root.
* Experiments — runs ``bench_experiments`` (which prints the metrics registry
  as JSON on stdout) and records the ``experiment.*.wall_s`` gauges — whole
  figure wall-times — in ``BENCH_experiments.json``.

Each perf PR appends its label, so the files carry the before/after
trajectory of every kernel and figure across the project's history.

Usage:
  python3 tools/perf_trajectory.py --bench-bin build/bench/bench_micro_kernels
  python3 tools/perf_trajectory.py --from-json dump.json --label seed
  python3 tools/perf_trajectory.py --experiments-bin build/bench/bench_experiments

Typically driven through the ``bench_trajectory`` CMake target.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

DEFAULT_FILTER = "BM_Gemm|BM_Conv|BM_ModuleLayer|BM_Pool"


def run_benchmark(bench_bin, bench_filter, min_time):
    cmd = [
        bench_bin,
        f"--benchmark_filter={bench_filter}",
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def distil(raw):
    """Reduce a google-benchmark JSON dump to {name: {ns, gflops?}}."""
    results = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {"real_time_ns": round(b["real_time"], 1)}
        ips = b.get("items_per_second")
        if ips:
            # BM_Gemm reports 2*n^3 items (flops) per iteration.
            entry["gflops"] = round(ips / 1e9, 3)
        results[b["name"]] = entry
    return results


def run_experiments(experiments_bin):
    """Run bench_experiments and return its {name: {...}} results.

    The binary prints the metrics registry JSON on stdout (progress goes to
    stderr); the per-figure wall-times live in gauges named
    ``experiment.<figure>.<variant>.wall_s``, and dimensionless overhead
    ratios (e.g. ``experiment.obs_overhead.ratio``, flight recorder on/off)
    in gauges ending ``.ratio``.
    """
    out = subprocess.run([experiments_bin], check=True, capture_output=True,
                         text=True)
    sys.stderr.write(out.stderr)
    metrics = json.loads(out.stdout)
    results = {}
    for name, value in metrics.get("gauges", {}).items():
        if name.startswith("experiment.") and name.endswith(".wall_s"):
            results[name] = {"wall_s": round(value, 3)}
        elif name.startswith("experiment.") and name.endswith(".ratio"):
            results[name] = {"ratio": round(value, 4)}
    return results


def src_lines(repo_root):
    """Line count of src/**/*.{h,cpp}: the library size, tracked per entry."""
    total = 0
    for dirpath, _, files in os.walk(os.path.join(repo_root, "src")):
        for name in files:
            if name.endswith((".h", ".cpp")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def load_trajectory(path, note):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"schema": 1, "note": note, "entries": []}


def append_entry(out_path, note, label, context, results):
    """Append/replace `label` in a label-keyed trajectory file."""
    traj = load_trajectory(out_path, note)
    entry = {
        "label": label,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        **context,
        "results": results,
    }
    entries = [e for e in traj["entries"] if e["label"] != label]
    entries.append(entry)
    traj["entries"] = entries
    with open(out_path, "w") as f:
        json.dump(traj, f, indent=2, sort_keys=False)
        f.write("\n")
    return entries


KERNELS_NOTE = (
    "Kernel perf trajectory. Regenerate with `make bench_trajectory` "
    "(or tools/perf_trajectory.py). Entries are append/replace by "
    "label; the first entry is the seed baseline."
)
EXPERIMENTS_NOTE = (
    "Per-figure experiment wall-time trajectory (reduced scale). Regenerate "
    "with `make bench_trajectory` or tools/perf_trajectory.py "
    "--experiments-bin. Entries are append/replace by label."
)


def run_kernel_suite(args):
    if args.from_json:
        try:
            with open(args.from_json) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read {args.from_json}: {e}", file=sys.stderr)
            return 1
    else:
        raw = run_benchmark(args.bench_bin, args.filter, args.min_time)

    results = distil(raw)
    if not results:
        print("no benchmarks matched filter", file=sys.stderr)
        return 1

    out_path = os.path.join(args.repo_root, "BENCH_kernels.json")
    raw_ctx = raw.get("context", {})
    context = {"num_cpus": raw_ctx.get("num_cpus"),
               "src_lines": src_lines(args.repo_root)}
    # Dispatch context, emitted by bench_micro_kernels' custom main: which
    # micro-kernel ran and what the CPU advertises. Old dumps lack these.
    for key in ("gemm_kernel", "cpu_features"):
        if raw_ctx.get(key) is not None:
            context[key] = raw_ctx[key]
    entries = append_entry(out_path, KERNELS_NOTE, args.label, context,
                           results)

    baseline = entries[0]["results"] if len(entries) > 1 else None
    print(f"wrote {out_path} [{args.label}]")
    for name, r in sorted(results.items()):
        line = f"  {name:32s} {r['real_time_ns']:>14.1f} ns"
        if "gflops" in r:
            line += f"  {r['gflops']:>8.3f} GFLOP/s"
        if baseline and name in baseline:
            speedup = baseline[name]["real_time_ns"] / r["real_time_ns"]
            line += f"  ({speedup:.2f}x vs {entries[0]['label']})"
        print(line)
    return 0


def run_experiment_suite(args):
    results = run_experiments(args.experiments_bin)
    if not results:
        print("no experiment.*.wall_s gauges in bench_experiments output",
              file=sys.stderr)
        return 1

    out_path = os.path.join(args.repo_root, "BENCH_experiments.json")
    context = {"bench_scale": os.environ.get("NEBULA_BENCH_SCALE", "1"),
               "src_lines": src_lines(args.repo_root)}
    entries = append_entry(out_path, EXPERIMENTS_NOTE, args.label, context,
                           results)

    baseline = entries[0]["results"] if len(entries) > 1 else None
    print(f"wrote {out_path} [{args.label}]")
    for name, r in sorted(results.items()):
        if "ratio" in r:
            print(f"  {name:48s} {r['ratio']:>9.4f} x")
            continue
        line = f"  {name:48s} {r['wall_s']:>9.3f} s"
        if baseline and name in baseline and "wall_s" in baseline[name]:
            speedup = baseline[name]["wall_s"] / r["wall_s"]
            line += f"  ({speedup:.2f}x vs {entries[0]['label']})"
        print(line)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-bin", help="path to bench_micro_kernels")
    ap.add_argument("--from-json", help="ingest an existing benchmark dump")
    ap.add_argument("--experiments-bin", help="path to bench_experiments")
    ap.add_argument("--label", default="current", help="entry label")
    ap.add_argument("--filter", default=DEFAULT_FILTER)
    ap.add_argument("--min-time", default="0.2")
    ap.add_argument("--repo-root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    if not (args.bench_bin or args.from_json or args.experiments_bin):
        ap.error("need --bench-bin, --from-json and/or --experiments-bin")

    rc = 0
    if args.bench_bin or args.from_json:
        rc = run_kernel_suite(args) or rc
    if args.experiments_bin:
        rc = run_experiment_suite(args) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
