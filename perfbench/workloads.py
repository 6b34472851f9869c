"""Seeded operation lists for the benchmark workloads.

An operation is one ``permutree`` command line plus the parameters the
checker needs to judge its output.  The lists depend only on the seed (and,
for ``verify-all``, on the suite names), so the same seed gives the same
commands.  The program under test receives only the ``argv`` lists.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from check import inversion_count, perm_text

WORKLOADS = ("verify-all", "sort-cli", "count-tree")

# A run makes round(--seconds / PASS_SECONDS[workload]) passes, at least one:
# at --seconds 30 that is 2 passes of verify-all, 1 of sort-cli (its n = 200
# text sort alone takes 12-15 s on the reference machine) and 2 of count-tree,
# whose first pass also pays about 3 s of checking.  That keeps a run within
# about 50 s on a loaded host, so 70 runs fit in under an hour.
PASS_SECONDS = {"verify-all": 15, "sort-cli": 22, "count-tree": 15}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    cmd: str  # "verify", "sort", "check", "count" or "tree"
    params: dict


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _orientation_args(u, d) -> list[str]:
    # "--u=" with an empty value asks count for the empty orientation rather
    # than for the table of every orientation.
    return [f"--u={_join(sorted(u))}", f"--d={_join(sorted(d))}"]


def typical_permutation(n: int, rng: random.Random) -> tuple[int, ...]:
    """A shuffle whose inversion count is within 0.5% of the mean n(n-1)/4.

    Sorting to the identity takes one row per inversion and the text table
    grows with the square of the row count, so bounding the inversion count
    keeps the cost of a command the same from seed to seed.
    """
    mean = n * (n - 1) / 4
    entries = list(range(1, n + 1))
    while True:
        rng.shuffle(entries)
        if abs(inversion_count(entries) - mean) <= 0.005 * mean:
            return tuple(entries)


def sparse_orientation(n: int, size: int, rng: random.Random):
    values = rng.sample(range(2, n), size)
    sides = [rng.random() < 0.5 for _ in values]
    u = frozenset(v for v, up in zip(values, sides) if up)
    d = frozenset(v for v, up in zip(values, sides) if not up)
    return u, d


def alternating_partition(n: int, rng: random.Random):
    """Every other value of 2..n-1 up, the rest down; the seed picks the parity."""
    parity = rng.randrange(2)
    u = frozenset(j for j in range(2, n) if j % 2 == parity)
    return u, frozenset(range(2, n)) - u


def random_partition(n: int, rng: random.Random):
    u = frozenset(j for j in range(2, n) if rng.random() < 0.5)
    return u, frozenset(range(2, n)) - u


def shuffled_priority(n: int, rng: random.Random) -> tuple[int, ...]:
    letters = list(range(1, n))
    rng.shuffle(letters)
    return tuple(letters)


def verify_ops(suites) -> list[Op]:
    """One ``verify --suite`` per suite, in the order given, at its default bound."""
    return [Op(("verify", "--suite", name), "verify", {"suite": name}) for name in suites]


# (degree, permutations drawn at that degree)
SORT_SIZES = ((50, 8), (100, 3), (200, 1))


def sort_cli_ops(seed: int) -> list[Op]:
    """sort and check at n = 50, 100, 200.

    Each permutation is sorted with --output json under four orientations:
    empty (the sort runs to the identity, one row per inversion), a one-value
    and an n/16-value sparse one, and the alternating partition (the sort
    sticks within about n rows), each with a seeded priority.  The empty
    orientation is also rendered as text, whose table grows as n^4; at
    n = 200 that is the command the ROADMAP names.  check runs against the
    denser sparse orientation and the partition.

    Only the empty orientation is rendered as text because its row count is
    fixed by the permutation, while a sparse sort sticks at a seed-dependent
    row; this keeps the slowest commands the same from seed to seed.
    """
    rng = random.Random(seed)
    ops = []
    for n, count in SORT_SIZES:
        for _ in range(count):
            pi = typical_permutation(n, rng)
            orientations = [
                (frozenset(), frozenset()),
                sparse_orientation(n, 1, rng),
                sparse_orientation(n, max(2, n // 16), rng),
                alternating_partition(n, rng),
            ]
            for index, (u, d) in enumerate(orientations):
                priority = shuffled_priority(n, rng)
                base = ["--n", str(n), *_orientation_args(u, d)]
                params = {"n": n, "u": u, "d": d, "pi": pi, "priority": priority}
                for output in ("json", "text") if index == 0 else ("json",):
                    argv = ("sort", *base, f"--priority={_join(priority)}", "--output", output,
                            perm_text(pi))
                    ops.append(Op(argv, "sort", {**params, "output": output}))
                if index >= 2:
                    ops.append(Op(("check", *base, perm_text(pi)), "check", params))
    return ops


def count_tree_ops(seed: int) -> list[Op]:
    """count at n = 9, 8 and tree at n = 6.

    count runs for the empty orientation (n!), one seeded partition
    (Catalan) and seeded three-value orientations: 3 at n = 9, 7 at n = 8.
    tree runs for two seeded two-value orientations and priorities, as plain
    DOT, DOT over the weak order and JSON.

    The mix keeps the percentiles inside groups of similar commands: the
    median falls among the n = 8 counts and the 90th percentile among the
    n = 9 counts, and a fixed number of values per orientation keeps the
    counts of a group alike.  There is no n = 7 tree: with a seeded priority
    its cost has a heavy tail (0.8 s median, 20.7 s worst over 42 draws) that
    would put a run past its time limit.
    """
    rng = random.Random(seed)
    ops = []
    for n, seeded in ((9, 3), (8, 7)):
        orientations = [(frozenset(), frozenset()), random_partition(n, rng)]
        orientations += [sparse_orientation(n, 3, rng) for _ in range(seeded)]
        for u, d in orientations:
            argv = ("count", "--n", str(n), *_orientation_args(u, d))
            ops.append(Op(argv, "count", {"n": n, "u": u, "d": d}))
    formats = {"dot": (), "overlay": ("--overlay",), "json": ("--output", "json")}
    for _ in range(2):
        u, d = sparse_orientation(6, 2, rng)
        priority = shuffled_priority(6, rng)
        base = ("tree", "--n", "6", *_orientation_args(u, d), f"--priority={_join(priority)}")
        params = {"n": 6, "u": u, "d": d, "priority": priority}
        for output, extra in formats.items():
            ops.append(Op((*base, *extra), "tree", {**params, "output": output}))
    return ops


def build_ops(workload: str, seed: int, suites) -> list[Op]:
    if workload == "verify-all":
        return verify_ops(suites)  # the suites are deterministic; the seed is unused
    if workload == "sort-cli":
        return sort_cli_ops(seed)
    if workload == "count-tree":
        return count_tree_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
