#!/usr/bin/env python3
"""Compare two bench/e2e result files against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py BASE.json NEW.json [--benchmark FILE]

BASE and NEW are files written by `bench/e2e/run.sh` (bench.py --sweep).
For every workload and end-to-end metric it prints each side's median and
spread (interquartile range as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) and a verdict:

  agree       NEW's median is within the bound of BASE's
  regressed   NEW is worse than BASE by more than the bound
  improved    NEW is better than BASE by more than the bound
  unresolved  a side's spread is wider than the bound, and not every NEW
              run is better than every BASE run

Exits 1 when any pair regressed or is unresolved. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summarize(values):
    """(median, spread) where spread is IQR / median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def verdict(base, new, better, bound):
    b_med, b_spread = summarize(base)
    n_med, n_spread = summarize(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if max(b_spread, n_spread) > bound:
        all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "agree", worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base = json.loads(Path(args.base).read_text())["workloads"]
    new = json.loads(Path(args.new).read_text())["workloads"]

    print(f"{'workload':<24} {'metric':<14} {'base':>11} {'spread':>7} "
          f"{'new':>11} {'spread':>7} {'worse':>7} {'bound':>6}  verdict")
    bad = 0
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            metric = m["name"]
            b = base.get(name, {}).get(metric, {}).get("values", [])
            n = new.get(name, {}).get(metric, {}).get("values", [])
            if not b or not n:
                print(f"{name:<24} {metric:<14} {'missing':>11}")
                bad += 1
                continue
            v, worse = verdict(b, n, m["better"], m["bound"])
            bad += v in ("regressed", "unresolved")
            b_med, b_spread = summarize(b)
            n_med, n_spread = summarize(n)
            print(f"{name:<24} {metric:<14} {b_med:>11.5g} {b_spread:>6.1%} "
                  f"{n_med:>11.5g} {n_spread:>6.1%} {worse:>+6.1%} "
                  f"{m['bound']:>5.0%}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
