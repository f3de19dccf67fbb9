#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs perfbench/run.py once per seed on
each workload and reports, per end-to-end metric, the median, the quartiles
and the spread (interquartile distance over the median) against the metric's
bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10 --label set1 --record perfbench/steadiness.json
    python3 perfbench/steady.py --workload vqe_h4_ranks --seeds 5

With --record, the set is stored under its label; a second set recorded into
the same file is compared with the first: each median may differ from the
first set's by at most the metric's bound. A workload whose host fingerprint
(run.py's HOST_KEYS) differs from the first set's is flagged, not compared.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import host_mismatch  # perfbench/run.py

ROOT = os.getcwd()


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                         f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{out.stdout}"
                         f"{out.stderr[-2000:]}")
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("fingerprint "))
    return result, fingerprint, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload, seeds 0..N-1 plus --first-seed")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--label", default="set")
    parser.add_argument("--record", default=None,
                        help="JSON file to store this set in")
    args = parser.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    summary = {}
    for name in selected:
        values = {m: [] for m in bounds}
        walls = []
        fingerprint = None
        for seed in seeds:
            result, fp, wall = run_once(name, seed, args.seconds)
            fingerprint = fingerprint or fp
            diff = host_mismatch(fingerprint, fp)
            if diff:
                print(f"WARNING: {name} seed {seed}: fingerprint differs from "
                      f"seed {seeds[0]} ({', '.join(diff)})", flush=True)
            walls.append(wall)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds) +
                f" ({wall:.1f} s wall)", flush=True)
        summary[name] = {"seeds": seeds, "run_wall_s": walls,
                         "fingerprint": fingerprint, "metrics": {}}
        for m in bounds:
            q1, med, q3 = quartiles(values[m])
            spread = (q3 - q1) / med if med else float("inf")
            summary[name]["metrics"][m] = {
                "values": values[m], "median": med, "q1": q1, "q3": q3,
                "spread": spread}
            flag = "ok" if spread <= bounds[m] / 3 else (
                "WITHIN BOUND" if spread <= bounds[m] else "TOO WIDE")
            print(f"  {name} {m}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {bounds[m]}) {flag}",
                  flush=True)

    if args.record:
        data = json.load(open(args.record)) if os.path.isfile(args.record) \
            else {"sets": {}}
        data["sets"][args.label] = summary
        first = next(iter(data["sets"].values()))
        if first is not summary:
            for name, s in summary.items():
                if name not in first:
                    continue
                diff = host_mismatch(first[name].get("fingerprint", {}),
                                     s["fingerprint"])
                if diff:
                    print(f"  {name}: FLAGGED, fingerprint differs from the "
                          f"first set ({', '.join(diff)}); not compared")
                    continue
                for m, v in s["metrics"].items():
                    m0 = first[name]["metrics"][m]["median"]
                    shift = (v["median"] - m0) / m0 if m0 else 0.0
                    print(f"  {name} {m}: median shift vs first set "
                          f"{shift:+.4f} (bound {bounds[m]})")
        with open(args.record, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
