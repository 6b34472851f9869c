"""permutree benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {verify-all,sort-cli,count-tree} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the directory holding ``src/permutree``).
It measures set-up time (importing ``permutree`` and ``permutree.cli``) in
several fresh interpreters, scaled to the reference speed as worker.py
describes, then runs the workload in one fresh subprocess
(perfbench/worker.py) and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it carries the run's context (nproc, Python,
platform, seed, passes, the op count behind each percentile, failures).
The full record goes to ``.perfbench-out/``.  Metric definitions and the
layer-to-workload map are in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# A probe takes about 0.1 s; over ten seeds the median of 20 spread at most 0.11.
SETUP_PROBES = 20
WORKER_TIMEOUT_S = 170
# Each probe times the import, then runs worker.calibrate() in the same
# interpreter, so its import time can be scaled to the reference speed.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "start = time.perf_counter()\n"
    "import permutree, permutree.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from worker import CAL_REF_S, calibrate\n"
    "print(elapsed, elapsed * CAL_REF_S / calibrate())\n"
)


def measure_setup() -> tuple[float, float]:
    """Median import time over fresh interpreters, after one that compiles
    bytecode: scaled to the reference speed, and as measured."""
    scaled, raw = [], []
    for index in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", PROBE, HERE], capture_output=True,
                              text=True, timeout=60, check=True)
        if index:
            measured, at_ref = map(float, done.stdout.split())
            raw.append(measured)
            scaled.append(at_ref)
    return statistics.median(scaled), statistics.median(raw)


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one permutree benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "permutree", "cli.py")):
        print("error: run from the root of a permutree checkout (src/permutree not found)",
              file=sys.stderr)
        return 2

    setup = measure_setup() if not args.trace else None
    record = os.path.join(".perfbench-out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--record", record]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the workload did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr, end="")
        print(f"error: the workload exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup[0], "unit": "s"}
        result["info"]["setup_raw_s"] = setup[1]
    print(json.dumps({"info": result.pop("info")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
