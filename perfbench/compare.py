"""Compare two checkouts with the same benchmark code.

    python3 perfbench/compare.py --parent DIR --change DIR [--pairs 10]
        [--workload NAME ...] [--trace 1]

Runs this copy of perfbench/run.py in each checkout for BENCHMARK.json's
run_seconds, alternating which side goes first, for at least ten
parent/change pairs; pair i uses seed FIRST_SEED + i on both sides.  For
each workload and metric it prints the median and quartiles of each side,
the change's win share (ties count for neither side) and a verdict:

- improved: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
- unresolved: the parent's own spread is wider than the metric's bound and
  not every change run beats every parent run;
- regressed: the change's median is worse than the parent's by more than
  the bound in BENCHMARK.json;
- unchanged: otherwise.

Per-layer metrics (``--trace 1``) have no bound; they get improved,
regressed (the mirror of improved) or unchanged.  A side with a failed or
incorrect run is reported, and its metrics are not judged.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
FIRST_SEED = 1


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        return {"correct": False, "error": done.stderr.strip()[-300:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better: str, bound: float | None) -> tuple[str, float]:
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    if share >= 0.9 and abs(cm - pm) > spread:
        return "improved", share
    if bound is None:
        worse = losses / len(parent) >= 0.9 and abs(cm - pm) > spread
        return ("regressed" if worse else "unchanged"), share
    if pm and spread / abs(pm) > bound:
        every = all(sign * (p - c) > 0 for p in parent for c in change)
        if not every:
            return "unresolved", share
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "regressed", share
    return "unchanged", share


def fmt(values) -> str:
    return "/".join(f"{v:.4g}" for v in values)


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="Compare a parent and a change checkout.")
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("at least ten pairs are needed to claim a difference")
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, workload, FIRST_SEED + i, seconds, args.trace))
        print(f"== {workload}: {args.pairs} pairs, seeds {FIRST_SEED}..{FIRST_SEED + args.pairs - 1}")
        bad = {side: sum(not r.get("correct") for r in rs) for side, rs in runs.items()}
        if any(bad.values()):
            print(f"   runs with failures or errors: {bad}; metrics not judged")
            continue
        print(f"   {'metric':38} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'win':>5}  verdict")
        for metric in metrics:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            result, share = verdict(parent, change, metric.get("better", "lower"), metric.get("bound"))
            print(f"   {name:38} {fmt(quartiles(parent)):>32} {fmt(quartiles(change)):>32} "
                  f"{share:5.2f}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
