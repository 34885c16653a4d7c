#!/usr/bin/env python3
"""Records the deterministic outputs run.py checks against.

Instance 0's accuracy and comm_mb_per_round are a pure function of
(workload, seed) for a given GEMM micro-kernel (FMA rounding changes training
trajectories), so expected.json keys them by kernel name, workload and seed.
Re-record after any change to a workload's definition. Run from the
repository root after building once with run.py:

    python3 e2ebench/record_expected.py --seeds 0-20

Existing entries for other kernels, workloads and seeds are kept.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,17")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    build_dir = os.path.join(os.getcwd(), ".bench_build", "e2ebench")
    binary = run.build(build_dir)
    path = os.path.join(HERE, "expected.json")
    try:
        with open(path) as f:
            expected = json.load(f)
    except OSError:
        expected = {}
    out = os.path.join(build_dir, "raw-record.json")
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                            "--seconds", "0", "--trace", "0", "--episodes", "1",
                            "--out", out], env=run.clean_env(), check=True)
            with open(out) as f:
                raw = json.load(f)
            ep = raw["episodes"][0]
            if ep["violations"]:
                sys.exit("seed %d %s: %s" % (seed, workload, ep["violations"]))
            entry = {"accuracy": ep["accuracy"],
                     "comm_mb_per_round": ep["comm_mb_per_round"]}
            kernel = raw["context"]["gemm_kernel"]
            expected.setdefault(kernel, {}).setdefault(workload, {})[str(seed)] = entry
            print(kernel, workload, seed, entry, flush=True)
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
