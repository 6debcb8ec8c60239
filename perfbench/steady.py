#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 1-10]
                                [--seconds S]

Run from the root of the checkout. Runs perfbench/run.py once per seed
and workload (one fresh process each) and prints, per metric, the median
of the runs and the spread: the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median.
A spread above a third of the metric's bound in BENCHMARK.json is
flagged, and one above the bound itself makes the exit code 1.
Defaults: every workload, seeds 1-10, BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: outputs incorrect" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0
    for workload in args.workload or names:
        values = {}
        for seed in seeds_of(args.seeds):
            for name, v in run_once(workload, seed, args.seconds).items():
                values.setdefault(name, []).append(v)
        print("%s (%d runs)" % (workload, len(seeds_of(args.seeds))))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                worst = 1
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            print("  %-16s median %14.4f  spread %6.2f%%  bound %4.0f%%%s"
                  % (name, med, 100 * spread, 100 * bound, flag))
    sys.exit(worst)


if __name__ == "__main__":
    main()
