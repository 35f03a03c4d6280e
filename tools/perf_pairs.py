#!/usr/bin/env python3
"""Paired benchmark comparison of a parent and a change checkout.

Usage:

    tools/perf_pairs.py <parent-checkout> <change-checkout> --workload W \
        --pairs N --seed0 S [--fuzz-seed F]

Each side runs its own perfbench/run.py (which builds that checkout in
Release mode on first use) at BENCHMARK.json's run_seconds with
--trace 0. One uncounted run per side builds and warms up first. Pair i
runs both sides with seed S + i; even pairs run the parent first, odd
pairs the change, so drift on the host does not favour one side.

For every end-to-end metric of the change checkout's BENCHMARK.json it
prints each side's median and quartiles, the pairs the change won, and
a verdict:

  improved          the change won at least 9 of every 10 pairs, and
                    its median beats the parent's by more than the
                    parent's own interquartile range;
  worse than bound  the change's median is worse than the parent's by
                    more than the metric's bound (a share of the
                    parent's median);
  unresolved        either side's interquartile range is wider than the
                    bound (as a share of its median), and not every
                    change run beats every parent run;
  within bound      anything else.

Exits 1 when any run is incorrect, the change fails a larger share of
its operations than the parent, or any end-to-end metric reads `worse
than bound`; 2 on a usage error. An `unresolved` metric does not fail
the run. It reads BENCHMARK.json and perfbench/ and changes neither.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def one_run(checkout, args, seed, seconds):
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--fuzz-seed", str(args.fuzz_seed)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def share(num, den):
    if den == 0:
        return 0.0 if num == 0 else math.inf
    return num / den


def verdict(parent, change, better, bound):
    """Verdict and relative median change (positive = better)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = share(sign * (cmed - pmed), abs(pmed))
    separated = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
    spread = max(share(pq3 - pq1, abs(pmed)), share(cq3 - cq1, abs(cmed)))
    if spread > bound and not separated:
        return "unresolved", wins, gain
    if 10 * wins >= 9 * len(parent) and sign * (cmed - pmed) > pq3 - pq1:
        return "improved", wins, gain
    if -gain > bound:
        return "worse than bound", wins, gain
    return "within bound", wins, gain


def fmt(x):
    return f"{x:,.0f}" if abs(x) >= 100 else f"{x:.4g}"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True,
                   choices=["triage", "fuzz", "serve"])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--fuzz-seed", type=int, default=42)
    args = p.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in sides.items():
        if not (root / "perfbench" / "run.py").exists():
            p.error(f"{side} checkout {root} has no perfbench/run.py")
    if args.pairs < 1 or args.seed0 < 0:
        p.error("--pairs must be >= 1 and --seed0 >= 0")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    for side, root in sides.items():
        one_run(root, args, args.seed0, 1)  # build and warm up
    ok = True
    values = {side: {} for side in sides}
    attempted = dict.fromkeys(sides, 0)
    failed = dict.fromkeys(sides, 0)
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = one_run(sides[side], args, seed, seconds)
            if not result["correct"]:
                print(f"pair {i + 1}: {side} run with seed {seed} is "
                      f"incorrect")
                ok = False
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            for name, m in result["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) "
              f"done", flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, {seconds} s runs"
          + (f", fuzz seed {args.fuzz_seed}"
             if args.workload == "fuzz" else ""))
    print(f"  {'metric':22} {'parent median [q1-q3]':>30} "
          f"{'change median [q1-q3]':>30} {'wins':>6}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = values["parent"].get(name)
        change = values["change"].get(name)
        if not parent or not change:
            print(f"  {name:22} not reported")
            continue
        what, wins, gain = verdict(parent, change, m["better"], m["bound"])
        if what == "worse than bound":
            ok = False
        cols = []
        for vs in (parent, change):
            q1, med, q3 = quartiles(vs)
            cols.append(f"{fmt(med)} [{fmt(q1)}-{fmt(q3)}]")
        print(f"  {name:22} {cols[0]:>30} {cols[1]:>30} "
              f"{wins:>3}/{len(parent):<2}  {what} ({gain:+.1%})")

    shares = {side: share(failed[side], attempted[side]) for side in sides}
    print(f"  failed share: parent {shares['parent']:.4%}, "
          f"change {shares['change']:.4%}")
    if shares["change"] > shares["parent"]:
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
