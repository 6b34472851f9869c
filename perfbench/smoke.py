"""Smoke test of the reference checker on a tiny batch of each workload.

    python3 perfbench/smoke.py        # from the root of a checkout

The checker's two avoidance predicates must agree on S_6.  Every op must
pass the checker as the program produced it, and each of
three deliberate corruptions must be rejected: a flipped exit code, the
output cut in half, and one digit near the middle of the output changed.
Exits 1 if any clean op fails or any corruption is accepted.
"""
from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import Checker, avoids, pattern_regex  # noqa: E402
from worker import Meter, run_op  # noqa: E402
from workloads import count_tree_ops, sort_cli_ops, verify_ops  # noqa: E402


def tiny_batches():
    sort_ops = [op for op in sort_cli_ops(0) if op.params["n"] == 50][:12]
    count_ops = count_tree_ops(0)
    small = [op for op in count_ops if op.params["n"] in (6, 8)]
    return {
        "verify-all": verify_ops(["tables", "endstats", "counting", "csorting"]),
        "sort-cli": sort_ops,
        "count-tree": small[:2] + [op for op in small if op.cmd == "tree"][:3],
    }


def corruptions(code: int, out: str):
    yield "exit code", 1 - code if code in (0, 1) else 0, out
    yield "truncated", code, out[: len(out) // 2]
    middle = len(out) // 2
    digits = [p for p in range(len(out)) if out[p].isdigit()]
    if digits:
        p = min(digits, key=lambda q: abs(q - middle))
        yield "digit", code, out[:p] + str((int(out[p]) + 1) % 10) + out[p + 1 :]


def predicates_agree(n: int) -> bool:
    """The O(n) predicate and the regular expressions agree on all of S_n."""
    for sides in itertools.product(range(3), repeat=n - 2):
        u = frozenset(j for j, s in zip(range(2, n), sides) if s == 1)
        d = frozenset(j for j, s in zip(range(2, n), sides) if s == 2)
        rx = pattern_regex(n, u, d)
        for pi in itertools.permutations(range(1, n + 1)):
            if avoids(pi, u, d) != (rx is None or not rx.search("".join(map(str, pi)))):
                return False
    return True


def main() -> int:
    from permutree.cli import main as cli_main

    problems = 0 if predicates_agree(6) else 1
    print(f"avoidance predicates agree on S_6 for every disjoint orientation: {not problems}")
    for workload, ops in tiny_batches().items():
        checker = Checker()
        rejected = total = 0
        for op in ops:
            code, out, _, crash = run_op(cli_main, op.argv, Meter(inside=False))
            reason = crash or checker.check(op, code, out)
            if reason is not None:
                print(f"{workload}: clean output rejected: {' '.join(op.argv)[:80]}: {reason}")
                problems += 1
                continue
            for label, bad_code, bad_out in corruptions(code, out):
                total += 1
                if checker.check(op, bad_code, bad_out) is None:
                    print(f"{workload}: {label} corruption accepted: {' '.join(op.argv)[:80]}")
                    problems += 1
                else:
                    rejected += 1
            checker.check(op, code, out)  # the next text sort compares with this JSON
        print(f"{workload}: {len(ops)} clean ops accepted, {rejected}/{total} corruptions rejected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
