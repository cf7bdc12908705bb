#!/usr/bin/env python3
"""Parent-versus-change comparison for the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT_ROOT CHANGE_ROOT [--pairs 10]
                                 [--workload W ...] [--out FILE]

PARENT_ROOT and CHANGE_ROOT are checkouts of the two commits (for example
`git archive` extracts) holding the same bench/e2e. For each
workload the script runs --pairs pairs, both sides of a pair on the same
seed, alternating which side runs first, with run_seconds from
BENCHMARK.json. It then prints one row per (workload, end-to-end metric)
with each side's median and quartiles and a verdict:

  gain        the change won >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's quartile
              distance; void when the change failed more messages
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  a side's quartile distance, as a share of its median, exceeds
              the bound, and not every change run beats every parent run
  unchanged   none of the above

A run whose checks fail marks its row INCORRECT. Exits 1 on any regression
or incorrect run. Uses only the Python standard library.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run(root, workload, seed, seconds):
    proc = subprocess.run(
        ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {root}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, parent, change, failed_more):
    """parent, change: per-pair values (same seed at the same index)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = ((cm - pm) if lower else (pm - cm)) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(better(c, p) for c in change for p in parent)
    if wins * 10 >= 9 * len(parent) and better(cm, pm) and abs(cm - pm) > p3 - p1 and not failed_more:
        v = "gain"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regression"
    else:
        v = "unchanged"
    return {"wins": wins, "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "worse_by": worse_by, "spread": spread, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="append every run's result to this JSON-lines file")
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("compare.py: claims need at least 10 pairs")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    bad = False
    print(f"{'workload':14s} {'metric':20s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s} {'worse':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in sides:
                root = args.parent_root if side == "parent" else args.change_root
                res = run(root, w, i + 1, seconds)
                results[side].append(res)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"side": side, "workload": w, "seed": i + 1,
                                            "result": res}) + "\n")
        incorrect = not all(r["correct"] for side in results.values() for r in side)
        failed = {s: sum(r["failed"] for r in rs) for s, rs in results.items()}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in results["parent"]]
            c = [r["metrics"][name]["value"] for r in results["change"]]
            v = verdict(metric, p, c, failed["change"] > failed["parent"])
            label = "INCORRECT" if incorrect else v["verdict"]
            bad |= incorrect or v["verdict"] == "regression"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:14s} {name:20s} {fmt(v['parent']):>32s} {fmt(v['change']):>32s} "
                  f"{v['wins']:>3d}/{len(p):<2d} {v['worse_by']:>+7.1%} {metric['bound']:>6.0%}  "
                  f"{label}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
