#!/usr/bin/env python3
"""Build and run the NVMe-oAF wall-clock benchmark (bench/e2e).

One run (the form BENCHMARK.json names):

    python3 bench/e2e/bench.py --workload NAME --seed N --seconds T --trace 0|1

builds build-e2e/ from source if needed, runs oaf_e2e once, passes its
report through, and prints as the last line the result JSON restricted to
the metrics BENCHMARK.json declares (end_to_end with --trace 0, per_layer
with --trace 1).

A sweep (what run.sh does):

    python3 bench/e2e/bench.py --sweep [--seed S] [--runs N] [--seconds T]

runs every workload N times, each in its own process with seed S+i, in
alternating order; prints median and quartiles per workload and metric;
writes build-e2e/e2e-results.json; then runs one traced pass per workload
and prints the per-layer table.

Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "oaf_e2e"
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
TRACE_SECONDS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tool_env():
    """Compilers and the benchmark keep temporary files inside the build tree."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    env = tool_env()
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"bench.py: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_binary(workload, seed, seconds, trace, trace_out=None, echo=True):
    """Run oaf_e2e once; returns (exit code, parsed result or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, env=tool_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def contract_line(result, names):
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        log(f"bench.py: oaf_e2e did not report {', '.join(missing)}")
        return None
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    })


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_run(args):
    spec = json.loads(BENCHMARK.read_text())
    trace = args.trace == "1"
    group = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[group]]
    if not build():
        return 1
    code, result = run_binary(args.workload, args.seed, args.seconds, trace,
                              args.trace_out)
    if result is None:
        return 1
    line = contract_line(result, names)
    if line is None:
        return 1
    print(line, flush=True)
    return code


def sweep(args):
    spec = json.loads(BENCHMARK.read_text())
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not build():
        return 1
    values = {w: {} for w in names}
    units = {}
    status = 0
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = args.seed + i
            log(f"run {i + 1}/{args.runs}: {w} seed {seed}")
            code, result = run_binary(w, seed, seconds, False, echo=False)
            if code != 0 or result is None or not result["correct"]:
                log(f"bench.py: {w} seed {seed} failed (exit {code})")
                status = 1
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]

    print("workload metric median q1 q3 unit")
    for w in names:
        for name, vals in values[w].items():
            q1, med, q3 = quartiles(vals)
            print(f"{w} {name} {med:.6g} {q1:.6g} {q3:.6g} {units[name]}")
    out = Path(args.out) if args.out else BUILD / "e2e-results.json"
    out.write_text(json.dumps({
        "seed": args.seed, "runs": args.runs, "seconds": seconds,
        "workloads": {w: {n: {"unit": units[n], "values": v}
                          for n, v in values[w].items()} for w in names},
    }, indent=1) + "\n")
    log(f"wrote {out}")

    layer = {}
    for w in names:
        log(f"traced run: {w} seed {args.seed}")
        code, result = run_binary(w, args.seed, TRACE_SECONDS, True,
                                  BUILD / f"trace-{w}.json", echo=False)
        if code != 0 or result is None:
            status = 1
            continue
        layer[w] = result["metrics"]
    print()
    print(f"per-layer metrics (traced run, {TRACE_SECONDS} s, seed {args.seed})")
    rows = []
    for w in names:
        for name, m in layer.get(w, {}).items():
            if name not in rows:
                rows.append(name)
    print("metric " + " ".join(names))
    for name in rows:
        cells = [f"{layer[w][name]['value']:.6g}" if name in layer.get(w, {})
                 else "-" for w in names]
        print(f"{name} {' '.join(cells)}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--trace-out")
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.sweep:
        return sweep(args)
    if not args.workload or not args.seconds:
        ap.error("--workload and --seconds are required")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
