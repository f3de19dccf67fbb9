#!/usr/bin/env python3
"""Time-to-solution benchmark for the DMET + MPS-VQE stack.

Run from the repository root:

    python3 perfbench/run.py --workload vqe_h4_ranks --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload dmet_ring --trace 1   # per-layer metrics

The first run configures and builds perfbench/ (the q2chem library from src/
plus the perfbench binary) into .bench_build/. The seed picks each workload's
bond length (perfbench/spec.json); the binary receives only the generated
geometry. Outputs and traces go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end metrics, measured over --seconds of repeated solves. With --trace 1
they are its per_layer metrics, from a fixed sequence of three solves
(untraced, one-worker, traced); --seconds does not apply. Lines before it
give the seed, the geometry, the host fingerprint and a readable summary.
Attempted operations are every set-up and solve a run issues; a solve that
throws, fails a check or times out counts as failed.

Maintenance mode:
    --make-references   recompute perfbench/references.json (FCI; minutes)
"""
import argparse
import hashlib
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RESULTS_LOG = os.path.join(OUT_DIR, "results.jsonl")
EXACT_LOG = os.path.join(OUT_DIR, "exact_counts.json")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

# Fingerprint fields that must agree before two results are compared.
HOST_KEYS = ("nproc", "cpus_available", "simd_isa", "build_type", "ranks",
             "threads")
# A run, build included, must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def write_json_atomic(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Build.

def build():
    """Configures (once) and builds the perfbench package; exits on failure."""
    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                     "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die(f"{required} not found; run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     cwd=ROOT)
            except OSError as e:
                die(f"cannot run {cmd[0]}: {e}", 1)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die(f"build step failed: {' '.join(cmd)}", 1)


# ---------------------------------------------------------------------------
# Inputs.

def bond_for(spec, seed):
    bonds = spec["bond_lengths_bohr"]
    return bonds[seed % len(bonds)]


def geometry(w, bond):
    """Atoms as [Z, x, y, z] in bohr: an H chain along x or a planar H ring."""
    n = w["n_atoms"]
    if w["shape"] == "chain":
        return [[1, i * bond, 0.0, 0.0] for i in range(n)]
    radius = bond / (2.0 * math.sin(math.pi / n))
    return [[1, radius * math.cos(2 * math.pi * i / n),
             radius * math.sin(2 * math.pi * i / n), 0.0] for i in range(n)]


def workload_request(name, w, atoms):
    keys = ("kind", "ranks", "threads", "max_bond", "max_iterations",
            "distance_window")
    req = {k: w[k] for k in keys if k in w}
    req["name"] = name
    req["atoms"] = atoms
    return req


def bond_key(bond):
    return f"{bond:.4f}"


# ---------------------------------------------------------------------------
# Child process: one JSON request on stdin, JSON lines on stdout.

def run_child(request, line_timeout, deadline):
    """Runs the perfbench binary; returns (records, error). A line that does not
    arrive within line_timeout, or a run past the deadline, kills the child
    and is reported as an error."""
    proc = subprocess.Popen([BINARY], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    lines = queue.Queue()
    stderr_chunks = []

    def pump_stdout():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    def pump_stderr():
        stderr_chunks.append(proc.stderr.read())

    readers = [threading.Thread(target=pump_stdout, daemon=True),
               threading.Thread(target=pump_stderr, daemon=True)]
    for t in readers:
        t.start()
    records, error = [], None
    try:
        proc.stdin.write(json.dumps(request))
        proc.stdin.close()
        while True:
            wait = min(line_timeout, deadline - time.monotonic())
            try:
                line = lines.get(timeout=max(0.0, wait))
            except queue.Empty:
                error = f"no output for {wait:.0f} s: killed (timeout)"
                break
            if line is None:
                break
            try:
                records.append(json.loads(line))
            except ValueError:
                error = f"unparsable output line: {line.strip()[:200]}"
                break
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for t in readers:
            t.join()
    stderr = "".join(stderr_chunks).strip()
    if error is None and proc.returncode != 0:
        error = f"perfbench exited with {proc.returncode}: {stderr[-500:]}"
    return records, error


# ---------------------------------------------------------------------------
# Fingerprint.

def source_digest():
    """SHA-256 over everything that decides what a solve computes: the
    library sources, the perfbench binary and the workload definitions. Identifies the
    code a result was measured on when no git metadata is available."""
    paths = [os.path.join("perfbench", f)
             for f in ("CMakeLists.txt", "perfbench.cpp", "spec.json")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        paths += [os.path.relpath(os.path.join(dirpath, f), ROOT)
                  for f in sorted(filenames)]
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode())
        with open(os.path.join(ROOT, path), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def fingerprint(w, host):
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "simd_isa": host.get("simd_isa", "unknown"),
        "build_type": host.get("build_type", "unknown"),
        "ranks": w["ranks"],
        "threads": w["threads"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def host_mismatch(a, b):
    return [f"{k} {a.get(k)} -> {b.get(k)}" for k in HOST_KEYS
            if a.get(k) != b.get(k)]


def previous_result(workload):
    if not os.path.isfile(RESULTS_LOG):
        return None
    last = None
    with open(RESULTS_LOG) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("workload") == workload:
                last = rec
    return last


# ---------------------------------------------------------------------------
# Checks.

def check_solve(spec, w, ref, solve):
    """Problems with one solve record (empty list = correct)."""
    problems = []
    if not solve.get("ok"):
        return [f"solve failed: {solve.get('error', 'unknown error')}"]
    e = solve["energy"]
    if not isinstance(e, (int, float)) or not math.isfinite(e):
        return [f"energy is not finite: {e}"]
    if sorted(solve["counts"]) != sorted(spec["exact_counts"]):
        problems.append(f"exact counts {sorted(solve['counts'])} differ from "
                        f"spec.json's exact_counts")
    if abs(solve["hf_energy"] - ref["e_hf"]) > 1e-8:
        problems.append(f"E_HF {solve['hf_energy']!r} differs from the "
                        f"reference {ref['e_hf']!r}: wrong geometry or integrals")
    rule = w["check"]
    if rule["rule"] == "near_reference":
        err = abs(e - ref["e_check"]) * 1e3
        if err > rule["tolerance_mha"]:
            problems.append(f"|E - E_ref| = {err:.4f} mHa exceeds "
                            f"{rule['tolerance_mha']} mHa")
    elif rule["rule"] == "between_fci_and_hf":
        if not ref["e_fci"] <= e <= ref["e_hf"]:
            problems.append(f"E = {e!r} outside [E_FCI, E_HF] = "
                            f"[{ref['e_fci']!r}, {ref['e_hf']!r}]")
    if "electron_tolerance" in rule:
        if not solve["converged"]:
            problems.append("chemical-potential fit did not converge")
        miss = abs(solve["electrons"] - solve["target_electrons"])
        if miss > rule["electron_tolerance"]:
            problems.append(f"electron count {solve['electrons']!r} misses "
                            f"the target {solve['target_electrons']} by {miss:.2e}")
    return problems


def same_result(a, b):
    return a["energy"] == b["energy"] and a["counts"] == b["counts"]


def check_against_previous(key, solve):
    """Exact counts and the energy must repeat across runs of one seed and
    source; the first run of a key records them."""
    os.makedirs(OUT_DIR, exist_ok=True)
    table = load_json(EXACT_LOG) if os.path.isfile(EXACT_LOG) else {}
    entry = {"energy": solve["energy"], "counts": solve["counts"]}
    if key not in table:
        table[key] = entry
        write_json_atomic(EXACT_LOG, table)
        return []
    if same_result(table[key], entry):
        return []
    return [f"energy or exact counts differ from an earlier run of {key}: "
            f"{table[key]} vs {entry}"]


# ---------------------------------------------------------------------------
# Modes.

def reference_for(name, bond):
    refs = load_json(REFERENCES)
    ref = refs.get(name, {}).get(bond_key(bond))
    if ref is None:
        die(f"no {name} reference at {bond} bohr in {REFERENCES}; "
            f"regenerate it with --make-references", 1)
    return ref


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def measure(args, spec, bench, name, deadline):
    """One untraced run of one workload: returns (result, log record)."""
    w = spec["workloads"][name]
    bond = bond_for(spec, args.seed)
    atoms = geometry(w, bond)
    ref = reference_for(name, bond)
    request = {"mode": "run", "workload": workload_request(name, w, atoms),
               "seconds": 0, "setup_reps": w["setup_reps"], "min_solves": 0}
    # Set-up samples come from several short processes and are averaged,
    # not taken at the median: a process runs its serial set-up at one of
    # two speeds about 40% apart (placement, memory layout, neighbours),
    # roughly half the processes at each, so a median flips between the
    # two from run to run while the mean moves only with the mixture.
    setups, error = [], None
    for _ in range(w["setup_processes"]):
        records, error = run_child(request, w["solve_timeout_s"], deadline)
        setups += [r for r in records if "setup" in r]
        if error:
            break
    records = []
    if not error:
        request.update(seconds=args.seconds, setup_reps=0,
                       min_solves=w["min_solves"])
        records, error = run_child(request, w["solve_timeout_s"], deadline)

    host = next((r for r in records if r.get("host")), {})
    solves = [r for r in records if "solve" in r]
    done = next((r for r in records if r.get("done")), None)
    problems = []
    failed = 0
    for r in setups:
        if not r["ok"]:
            failed += 1
            problems.append(f"set-up {r['setup']} failed: {r.get('error')}")
    good = []
    for r in solves:
        p = check_solve(spec, w, ref, r)
        if not p and good and not same_result(good[0], r):
            p = ["not bit-identical to the run's first solve"]
        if p:
            failed += 1
            problems.extend(f"solve {r['solve']}: {x}" for x in p)
        else:
            good.append(r)
    attempted = len(setups) + len(solves)
    if error:
        attempted += 1
        failed += 1
        problems.append(error)
    if good:
        key = f"{source_digest()}/{name}/seed{args.seed}"
        p = check_against_previous(key, good[0])
        failed += len(p)
        problems.extend(p)

    setup_s = [r["setup_s"] for r in setups if r["ok"]]
    e = good[0]["energy"] if good else float("nan")
    values = {
        "time_to_solution_s":
            median_or_zero([r["time_to_solution_s"] for r in good]),
        "setup_s": statistics.fmean(setup_s) if setup_s else 0.0,
        "peak_rss_mb": done["peak_rss_kb"] / 1024.0 if done else 0.0,
        "energy_error_mha": abs(e - ref["e_fci"]) * 1e3 if good else 0.0,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench["end_to_end"]}
    attempted = max(1, attempted)
    result = {"correct": not problems and bool(good), "attempted": attempted,
              "failed": min(failed, attempted), "metrics": metrics}
    record = {
        "workload": name, "seed": args.seed, "bond_bohr": bond,
        "geometry_bohr": atoms, "trace": 0, "seconds": args.seconds,
        "fingerprint": fingerprint(w, host), "result": result,
        "problems": problems,
        "samples": {"time_to_solution_s":
                        [r["time_to_solution_s"] for r in good],
                    "setup_s": setup_s},
        "energy": e, "reference": ref,
        "exact_counts": good[0]["counts"] if good else {},
        "solution": {k: good[0][k] for k in (
            "iterations", "converged", "electrons", "target_electrons",
            "mu_iterations")} if good else {},
    }
    return result, record


def measure_traced(args, spec, bench, name, deadline):
    """The traced run: per-layer metrics for one workload."""
    w = spec["workloads"][name]
    bond = bond_for(spec, args.seed)
    atoms = geometry(w, bond)
    ref = reference_for(name, bond)
    run_id = f"{name}-seed{args.seed}-{os.getpid()}-{int(time.time())}"
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{run_id}.json")
    request = {"mode": "trace", "workload": workload_request(name, w, atoms),
               "trace_file": trace_file, "run_id": run_id, "probe_reps": 3}
    # Three solves, one of them traced and one serial, run in one child.
    records, error = run_child(request, 3 * w["solve_timeout_s"], deadline)
    host = next((r for r in records if r.get("host")), {})
    trace = next((r for r in records if r.get("trace")), None)
    problems = []
    failed = 0
    attempted = 3
    if trace:
        solves = [trace["untraced"], trace["serial"], trace["traced"]]
        for label, s in zip(("untraced", "serial", "traced"), solves):
            p = check_solve(spec, w, ref, s)
            failed += bool(p)
            problems.extend(f"{label} solve: {x}" for x in p)
        if not failed and not same_result(solves[0], solves[2]):
            failed += 1
            problems.append("traced solve is not bit-identical to the "
                            "untraced one")
        if not failed:
            p = check_against_previous(
                f"{source_digest()}/{name}/seed{args.seed}", solves[0])
            failed += len(p)
            problems.extend(p)
    else:
        failed = attempted
        problems.append(error or "perfbench printed no trace record")
    if error and trace:
        failed += 1
        problems.append(error)
    layer = trace["metrics"] if trace else {}
    metrics = {}
    for m in bench["per_layer"]:
        if m["name"] not in layer and trace:
            problems.append(f"perfbench did not report {m['name']}")
        metrics[m["name"]] = {"value": layer.get(m["name"], 0.0),
                              "unit": m["unit"]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": min(failed, attempted), "metrics": metrics}
    record = {
        "workload": name, "seed": args.seed, "bond_bohr": bond,
        "geometry_bohr": atoms, "trace": 1, "run_id": run_id,
        "trace_file": os.path.relpath(trace_file, ROOT),
        "fingerprint": fingerprint(w, host), "result": result,
        "problems": problems,
    }
    return result, record


def report(record, result):
    """Readable lines for one workload result (everything but the final
    JSON line)."""
    fp = record["fingerprint"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"bond {record['bond_bohr']} bohr  trace {record['trace']}")
    print("geometry_bohr " + json.dumps(record["geometry_bohr"]))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    previous = previous_result(record["workload"])
    if previous:
        diff = host_mismatch(previous["fingerprint"], fp)
        if diff:
            print(f"WARNING: host fingerprint differs from the previous "
                  f"{record['workload']} result ({', '.join(diff)}); do not "
                  f"compare the two", file=sys.stderr)
    solution = record.get("solution")
    if solution:
        print("solution " + json.dumps(solution, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for p in record["problems"]:
        print(f"  problem: {p}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(RESULTS_LOG, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def make_references(spec):
    refs = load_json(REFERENCES) if os.path.isfile(REFERENCES) else {}
    for name, w in spec["workloads"].items():
        for bond in spec["bond_lengths_bohr"]:
            atoms = geometry(w, bond)
            t0 = time.monotonic()
            records, error = run_child(
                {"mode": "reference",
                 "workload": workload_request(name, w, atoms)},
                line_timeout=1800, deadline=time.monotonic() + 1800)
            if error:
                die(f"{name} at {bond}: {error}", 1)
            r = next(x for x in records if x.get("reference"))
            refs.setdefault(name, {})[bond_key(bond)] = {
                k: r[k] for k in ("e_hf", "e_fci", "e_check")}
            print(f"{name} {bond}: {refs[name][bond_key(bond)]} "
                  f"({time.monotonic() - t0:.1f} s)", file=sys.stderr)
            write_json_atomic(REFERENCES, refs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args()

    build()
    spec = load_json(os.path.join(BENCH_DIR, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.make_references:
        make_references(spec)
        return 0
    if args.seed is None:
        args.seed = spec["default_seed"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [wl["name"] for wl in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die(f"unknown workload {args.workload!r}; choose from {names}")
    selected = names if args.workload == "all" else [args.workload]

    results = {}
    for name in selected:
        deadline = time.monotonic() + RUN_DEADLINE_S
        run = measure_traced if args.trace else measure
        result, record = run(args, spec, bench, name, deadline)
        report(record, result)
        results[name] = result
    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
