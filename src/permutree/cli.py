"""
Command line for sorting, checking, counting, exporting, and verifying.

Exit codes are a contract: 0 success, 1 mathematical failure (a sort that
gets stuck, a non-minimal permutation, a verification counterexample),
2 usage error.  All output is deterministic for fixed flags.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .core import Kind, Orientation, Permutation, Word, minimality_witness
from .automata import export_dot, export_dot_product, state_count
from .sorting import (
    PriorityOrder,
    check_sorting_network,
    network_candidate,
    permutree_sort,
)
from .trees import count_minimal, export_tree_dot, generating_tree
from .verify import SUITES, disjoint_orientations, run_suite, suite_bound

USAGE_ERROR = 2
MATH_FAILURE = 1

# Largest inputs the commands accept.  network enumerates S_n, so one more
# n multiplies its work by n or more; an automaton's table has about 3n^2
# entries; a product is drawn state by state.  A sort takes at most one step
# per inversion (about n^2/4 for a random permutation), each O(n): the pick
# scans the descent set, and a rendered row joins its n values.  Its JSON has
# about n^3 characters and its text table about n^4 (450 MB at n = 200, 1.1 GB
# at n = 250).  In-process on 2 cores, sort --n 400 --output json takes 2.0 s,
# --n 200 --output text 1.3 s, mostly rendering.  count runs a DP over the 2^n
# sets of placed values, over 3^(n-2) orientations for the table.  tree
# builds and renders each node once, so it is capped by its node count,
# which count gives first (hence tree's cap on n is count's); --overlay
# draws all of S_n.  The count caps are each the largest size whose worst
# case stays under a quarter second in-process (2 cores, Python 3.11):
# count for one orientation 0.15 s at n = 16 (d = 2..15), 0.34 s at
# n = 17; the count table 0.17 s at n = 8, 0.79 s at n = 9.  The tree caps
# were set the same way and are kept: the DOT or JSON of a tree of up to
# 6,000 nodes takes at most 0.11 s (5,760 nodes at n = 8, 4,862 at n = 9),
# 6,776 nodes at n = 8 take 0.11 s, 6,864 at n = 9 0.14 s and 16,796 at
# n = 10 0.26 s; --overlay takes 0.07-0.09 s at n = 7 (the empty orientation).
MAX_COUNT_ALL_N = 8  # count over every disjoint orientation
MAX_COUNT_N = 16  # count for one orientation
MAX_TREE_NODES = 6_000
MAX_TREE_OVERLAY_N = 7  # tree --overlay
MAX_NETWORK_N = 8
MAX_AUTOMATON_N = 1000
MAX_PRODUCT_STATES = 100_000
MAX_SORT_N = 400
MAX_SORT_TEXT_N = 200  # sort --output text


class UsageError(Exception):
    pass


def _parse_set(text: str | None) -> frozenset[int]:
    if text is None or not text.strip():
        return frozenset()
    try:
        return frozenset(int(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"cannot parse set from {text!r}") from exc


def _parse_orientation(args, n: int, disjoint: bool = False) -> Orientation:
    try:
        orientation = Orientation(_parse_set(args.u), _parse_set(args.d), n)
        if disjoint:
            orientation.require_disjoint()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return orientation


def _parse_permutation(text: str, n: int) -> Permutation:
    try:
        pi = Permutation.from_text(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if pi.n != n:
        raise UsageError(f"permutation {text!r} has degree {pi.n}, expected {n}")
    return pi


def _require_at_most(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise UsageError(f"{what} is capped at n={cap}; beyond that it is not worth the wait")


def _refuse_given(args, why: str, *flags: str) -> None:
    """Refuse the first of the flags that was given (is neither None nor False)."""
    for flag in flags:
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None and value is not False:
            raise UsageError(f"{flag} {why}")


def _parse_priority(text: str | None, n: int) -> PriorityOrder:
    if text is None or not text.strip():
        return PriorityOrder.natural(n)
    try:
        priority = PriorityOrder(tuple(int(p) for p in text.replace(",", " ").split()))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if priority.n != n:
        raise UsageError(f"priority must order 1..{n - 1}, got {text!r}")
    return priority


def cmd_sort(args) -> int:
    orientation = _parse_orientation(args, args.n, disjoint=True)
    if args.output == "text":
        _require_at_most(args.n, MAX_SORT_TEXT_N, "sort --output text")
    _require_at_most(args.n, MAX_SORT_N, "sort")
    pi = _parse_permutation(args.permutation, args.n)
    priority = _parse_priority(args.priority, args.n)
    trace = permutree_sort(pi, orientation, priority)
    if args.output == "json":
        print(trace.to_json())
    else:
        print(trace.to_table(), end="")
    return 0 if trace.success else MATH_FAILURE


def cmd_check(args) -> int:
    orientation = _parse_orientation(args, args.n)
    pi = _parse_permutation(args.permutation, args.n)
    witness = minimality_witness(pi, orientation)
    if witness is not None:
        j, kind, positions = witness
        values = "".join(str(pi.value_at(p)) for p in positions)
    if args.output == "json":
        payload = {"pi": str(pi), "minimal": witness is None}
        if witness is not None:
            payload["witness"] = {
                "j": j,
                "side": kind.value,
                "positions": list(positions),
                "values": values,
            }
        print(json.dumps(payload, sort_keys=True))
    elif witness is None:
        print("minimal")
    else:
        label = f"{j}ki" if kind is Kind.UP else f"ki{j}"
        print(
            f"non-minimal: contains {values} ({label}) at positions "
            f"{','.join(str(p) for p in positions)}"
        )
    return 0 if witness is None else MATH_FAILURE


def cmd_count(args) -> int:
    n = args.n
    if args.u is None and args.d is None:
        _require_at_most(n, MAX_COUNT_ALL_N, "count over every orientation")
        rows = []
        for orientation in disjoint_orientations(n):
            rows.append(
                {
                    "u": sorted(orientation.u),
                    "d": sorted(orientation.d),
                    "count": count_minimal(orientation),
                }
            )
        rows.sort(key=lambda r: (r["u"], r["d"]))
        if args.output == "json":
            print(json.dumps({"n": n, "rows": rows}, sort_keys=True))
        else:
            for row in rows:
                u = "{" + ",".join(map(str, row["u"])) + "}"
                d = "{" + ",".join(map(str, row["d"])) + "}"
                print(f"u={u} d={d} count={row['count']}")
        return 0
    orientation = _parse_orientation(args, n, disjoint=True)
    _require_at_most(n, MAX_COUNT_N, "count")
    count = count_minimal(orientation)
    if args.output == "json":
        print(json.dumps({"n": n, "u": sorted(orientation.u), "d": sorted(orientation.d), "count": count}))
    else:
        print(count)
    return 0


def cmd_automaton(args) -> int:
    _require_at_most(args.n, MAX_AUTOMATON_N, "automaton")
    if args.product:
        _refuse_given(args, "cannot be combined with --product", "--kind", "--j")
        orientation = _parse_orientation(args, args.n)
        states = math.prod(state_count(kind, j, args.n) for kind, j in orientation.components)
        if states > MAX_PRODUCT_STATES:
            raise UsageError(
                f"the product has {states} states, more than the cap of {MAX_PRODUCT_STATES}"
            )
        print(export_dot_product(orientation, reachable_only=args.reachable_only), end="")
        return 0
    _refuse_given(args, "requires --product", "--u", "--d", "--reachable-only")
    if args.kind is None or args.j is None:
        raise UsageError("either --product or both --kind and --j are required")
    kind = Kind.UP if args.kind.upper() == "U" else Kind.DOWN
    if not 1 <= args.j <= args.n:
        raise UsageError(f"--j must lie in 1..{args.n}")
    print(export_dot(kind, args.j, args.n), end="")
    return 0


def cmd_tree(args) -> int:
    if args.output == "json":
        _refuse_given(args, "does not apply to --output json", "--overlay", "--dot")
    orientation = _parse_orientation(args, args.n, disjoint=True)
    priority = _parse_priority(args.priority, args.n)
    _require_at_most(args.n, MAX_COUNT_N, "tree")
    if args.overlay:
        _require_at_most(args.n, MAX_TREE_OVERLAY_N, "tree --overlay")
    nodes = count_minimal(orientation)
    if nodes > MAX_TREE_NODES:
        raise UsageError(f"the tree has {nodes} nodes, more than the cap of {MAX_TREE_NODES}")
    tree = generating_tree(orientation, priority)
    if args.output == "json":
        print(tree.to_json())
        return 0
    print(export_tree_dot(tree, args.overlay), end="")
    return 0


def cmd_network(args) -> int:
    orientation = _parse_orientation(args, args.n)
    u, d = orientation.u, orientation.d
    if len(u) + len(d) != 1:
        raise UsageError("the candidate generator is defined only for a single automaton")
    kind = Kind.UP if u else Kind.DOWN
    j = next(iter(u or d))
    _require_at_most(args.n, MAX_NETWORK_N, "network")
    try:
        extension = Word.from_text(args.extend, args.n) if args.extend is not None else None
    except ValueError as exc:
        raise UsageError(f"cannot parse --extend {args.extend!r}: {exc}") from exc
    template = network_candidate(kind, j, args.n, extension)
    counterexample = check_sorting_network(template, orientation)
    verdict = "valid" if counterexample is None else f"refuted by {counterexample}"
    if args.output == "json":
        print(
            json.dumps(
                {
                    "template": list(template),
                    "valid": counterexample is None,
                    "counterexample": None if counterexample is None else str(counterexample),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"candidate: {template}")
        print(f"verdict: {verdict}")
    return 0 if counterexample is None else MATH_FAILURE


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        for name in names:  # refuse an oversized bound before any suite runs
            suite_bound(name, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    failures = 0
    for name in names:
        violations = run_suite(name, args.n)
        if name == "networks" and not violations:
            print("networks: no valid network among 768 reduced words of 54321; "
                  "known good templates confirmed")
        status = "pass" if not violations else f"FAIL ({len(violations)} counterexamples)"
        print(f"{name}: {status}")
        for line in violations[:20]:
            print(f"  {line}")
        failures += bool(violations)
    return 0 if failures == 0 else MATH_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutree",
        description="Permutree sorting of permutations, the automata that accept "
        "their reduced expressions, and exhaustive verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, orientation=True, priority=False, output=("text", "json")):
        p.add_argument("--n", type=int, required=True, help="degree of the symmetric group")
        if orientation:
            p.add_argument("--u", help="comma-separated up set, e.g. 2,3 (default empty)")
            p.add_argument("--d", help="comma-separated down set (default empty)")
        if priority:
            p.add_argument(
                "--priority",
                help="generator indices from most to least preferred, e.g. 2,1,3 "
                "(default natural order)",
            )
        p.add_argument("--output", choices=output, default=output[0])

    p_sort = sub.add_parser("sort", help="run the (u,d) sorting algorithm and print its trace")
    add_common(p_sort, priority=True)
    p_sort.add_argument("permutation")
    p_sort.set_defaults(func=cmd_sort)

    p_check = sub.add_parser("check", help="test minimality, printing a witness subword on failure")
    add_common(p_check)
    p_check.add_argument("permutation")
    p_check.set_defaults(func=cmd_check)

    p_count = sub.add_parser(
        "count", help="count minimal permutations (all disjoint orientations when u, d omitted)"
    )
    add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_auto = sub.add_parser("automaton", help="emit an automaton as DOT")
    add_common(p_auto, output=("dot",))
    p_auto.add_argument("--kind", choices=["U", "D", "u", "d"])
    p_auto.add_argument("--j", type=int)
    p_auto.add_argument("--product", action="store_true", help="emit the intersection automaton")
    p_auto.add_argument(
        "--reachable-only", action="store_true", help="restrict the product to reachable states"
    )
    p_auto.add_argument("--dot", action="store_true", help="accepted for symmetry; DOT is the only format")
    p_auto.set_defaults(func=cmd_automaton)

    p_tree = sub.add_parser("tree", help="emit the generating tree as DOT (or a JSON word map)")
    add_common(p_tree, priority=True, output=("dot", "json"))
    p_tree.add_argument("--overlay", action="store_true", help="draw the full weak order under the tree")
    p_tree.add_argument("--dot", action="store_true", help="accepted for symmetry; default format")
    p_tree.set_defaults(func=cmd_tree)

    p_net = sub.add_parser(
        "network",
        help="experimental: generate a sorting-network candidate from the healthy "
        "states of a single automaton and validate it",
    )
    add_common(p_net)
    p_net.add_argument("--extend", help="letters appended to the generated prefix (default n-1..1)")
    p_net.set_defaults(func=cmd_network)

    p_verify = sub.add_parser("verify", help="run a verification suite (see --suite)")
    p_verify.add_argument("--suite", choices=list(SUITES) + ["all"], required=True)
    p_verify.add_argument(
        "--n",
        type=int,
        help="bound for suites that take one (default 5, opt-in 6 or 7 where supported)",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n is not None and args.n < 1:
            raise UsageError(f"--n must be at least 1, got {args.n}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
