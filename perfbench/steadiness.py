#!/usr/bin/env python3
"""Steadiness report: repeat benchmark runs and summarize their spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload triage [--runs 10]
        [--first-seed 1] [--seconds 10] [--trace 0]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...)
and prints, for every metric, the median and quartiles of its values
(Python's statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. With --trace 0 each
spread is compared with the metric's bound in BENCHMARK.json: above a
third of the bound is marked "wide", above the bound "TOO NOISY".
For every tail metric it
prints each run's tail percentile, sample count and the ratio between
the samples either side of the tail rank; a ratio above 1.5 means the
rank sits on a gap between clusters of similar units and is flagged.
Every run must be correct and every run of one fingerprint key must
print the same work fingerprint.

Exits 1 when any run failed, a spread exceeds its bound, a tail rank
sits on a gap, or fingerprints disagree.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GAP_RATIO = 1.5


def one_run(args, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
    detail = json.loads(lines[-2][len("detail: "):])
    return json.loads(lines[-1]), detail


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["triage", "fuzz", "serve"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    values, tails, prints = {}, {}, {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result, detail = one_run(args, seed)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: run failed: {detail.get('failures')}")
            ok = False
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, t in detail.get("tails", {}).items():
            tails.setdefault(name, []).append((seed, t))
        prints.setdefault(detail.get("fingerprint_key", ""), set()).add(
            detail.get("fingerprint", ""))

    print(f"{args.workload}: {args.runs} runs, {args.seconds} s each, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"  {'metric':34} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                       else (vs[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and args.trace == 0:
            if spread > bound:
                mark, ok = "TOO NOISY", False
            elif spread > bound / 3:
                mark = "wide"
        print(f"  {name:34} {q1:12.6g} {med:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} "
              f"{mark}")
    for name, runs in tails.items():
        print(f"  {name} tail ranks:")
        for seed, t in runs:
            gap = t["ratio"] > GAP_RATIO
            ok = ok and not gap
            print(f"    seed {seed}: p{t['percentile']:g} of {t['samples']} "
                  f"samples ({t['beyond']} beyond), neighbours "
                  f"{t['below']:.6g} / {t['above']:.6g}, ratio "
                  f"{t['ratio']:.4f}{'  GAP' if gap else ''}")
    for key, fps in prints.items():
        same = len(fps) == 1
        ok = ok and same
        print(f"  fingerprint {key}: "
              f"{'identical' if same else 'DIFFERS'} "
              f"({'; '.join(sorted(fps))})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
