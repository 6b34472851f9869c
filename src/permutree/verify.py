"""
Exhaustive verification suites.

Each suite re-proves one of the package's mathematical guarantees on small
symmetric groups by comparing two independent routes (typically brute-force
enumeration of reduced expressions against a direct subword predicate) and
returns a list of human-readable violation strings; an empty list is a pass.
These are the same suites the command line exposes and the acceptance tests
assert on.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Iterator

from .core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_permutations,
    all_reduced_words,
    contains_pattern,
    evaluate,
    is_minimal,
    ninv_stats,
    stack_sort,
)
from .automata import (
    Status,
    accepts,
    classify,
    exists_accepted,
    expected_final_column,
    initial_product,
    label,
    product_table,
    run,
    step_product,
)
from .coxeter import (
    CoxeterWord,
    all_coxeter_words,
    c_sorting_word,
    is_c_sortable,
    verify_csorting_equivalences,
)
from .sorting import (
    PriorityOrder,
    check_sorting_network,
    network_mismatch,
    permutree_sort,
    sort_single,
)
from .trees import count_minimal, lexmin_word

Violations = list[str]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def disjoint_orientations(n: int) -> Iterator[Orientation]:
    """All 3^(n-2) ways to put each of 2..n-1 up, down, or nowhere (only the empty one for n <= 2)."""
    values = range(2, n)
    for assignment in itertools.product((None, Kind.UP, Kind.DOWN), repeat=len(values)):
        up = frozenset(j for j, side in zip(values, assignment) if side is Kind.UP)
        down = frozenset(j for j, side in zip(values, assignment) if side is Kind.DOWN)
        yield Orientation(up, down, n)


def partition_orientations(n: int) -> Iterator[Orientation]:
    """The 2^(n-2) orientations covering all of 2..n-1."""
    for orientation in disjoint_orientations(n):
        if orientation.u | orientation.d == set(range(2, n)):
            yield orientation


def check_theorem_single(max_n: int) -> Violations:
    """Single automaton acceptance (enumeration) vs subword avoidance, n up to max_n."""
    violations = []
    for n in range(2, max_n + 1):
        for pi in all_permutations(n):
            words = all_reduced_words(pi)
            for j in range(2, n):
                for kind in (Kind.UP, Kind.DOWN):
                    by_automaton = any(accepts(kind, j, n, word) for word in words)
                    by_pattern = not contains_pattern(pi, j, kind)
                    if by_automaton != by_pattern:
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: "
                            f"automaton={by_automaton} pattern={by_pattern}"
                        )
    return violations


def check_theorem_product(max_n: int) -> Violations:
    """Intersection acceptance (enumeration) vs combined avoidance, all disjoint orientations."""
    violations = []
    for n in range(2, max_n + 1):
        orientations = list(disjoint_orientations(n))
        for pi in all_permutations(n):
            for orientation in orientations:
                by_automata = exists_accepted(pi, orientation)
                by_pattern = is_minimal(pi, orientation)
                if by_automata != by_pattern:
                    violations.append(
                        f"n={n} pi={pi} u={sorted(orientation.u)} d={sorted(orientation.d)}: "
                        f"automata={by_automata} pattern={by_pattern}"
                    )
    return violations


# Worked runs the implementation must reproduce row for row:
# (input, j or (u, d), expected rows (pi, letter, extras), expected word, final).
GOLDEN_SINGLE = [
    {
        "pi": "3421",
        "j": 2,
        "rows": [("3421", 2, 2), ("2431", 3, 1), ("1432", 3, 3), ("1342", 4, 2), ("1243", 4, 3)],
        "word": (2, 1, 3, 2, 3),
        "final": "1234",
    },
    {
        "pi": "4231",
        "j": 2,
        "rows": [("4231", 2, 3), ("3241", 2, 2), ("2341", 3, 1), ("1342", 3, 2)],
        "word": (3, 2, 1, 2),
        "final": "1243",
    },
]

GOLDEN_PRODUCT = [
    {
        "pi": "3214",
        "u": (3,),
        "d": (2,),
        "rows": [
            ("3214", (3,), (2,), 1, ()),
            ("3124", (3,), (1,), 2, ((3, True),)),
            ("2134", (), (1,), 1, ((0, True),)),
        ],
        "word": (1, 2, 1),
        "final": "1234",
    },
    {
        "pi": "1324",
        "u": (3,),
        "d": (2,),
        "rows": [("1324", (3,), (2,), 2, ((1, True), (3, True)))],
        "word": (2,),
        "final": "1234",
    },
    {
        "pi": "1342",
        "u": (3,),
        "d": (2,),
        "rows": [("1342", (3,), (2,), 2, ((1, True), (3, False)))],
        "word": (),
        "final": "1342",
    },
    {
        "pi": "54213",
        "u": (2,),
        "d": (4,),
        "rows": [
            ("54213", (2,), (4,), 3, ()),
            ("53214", (2,), (3,), 2, ()),
            ("52314", (3,), (2,), 1, ()),
            ("51324", (3,), (1,), 4, ()),
            ("41325", (3,), (1,), 3, ()),
            ("31425", (4,), (1,), 2, ()),
            ("21435", (4,), (1,), 1, ((0, True),)),
            ("12435", (4,), (), 3, ((4, True),)),
        ],
        "word": (3, 2, 1, 4, 3, 2, 1, 3),
        "final": "12345",
    },
    {
        "pi": "15342",
        "u": (2,),
        "d": (4,),
        "rows": [
            ("15342", (2,), (4,), 2, ()),
            ("15243", (3,), (4,), 3, ()),
            ("15234", (4,), (3,), 4, ()),
            ("14235", (5,), (3,), 3, ((2, False),)),
        ],
        "word": (2, 3, 4),
        "final": "14235",
    },
]


def check_golden_tables() -> Violations:
    violations = []
    for case in GOLDEN_SINGLE:
        pi = Permutation.from_text(case["pi"])
        trace = sort_single(pi, case["j"], Kind.UP)
        got_rows = [(str(s.pi), next(iter(s.u)), s.letter) for s in trace.steps]
        want_rows = [(p, j, l) for p, j, l in case["rows"]]
        if got_rows != want_rows:
            violations.append(f"single {case['pi']}: rows {got_rows} != {want_rows}")
        if trace.word.letters != case["word"] or str(trace.result) != case["final"]:
            violations.append(
                f"single {case['pi']}: word {trace.word} final {trace.result}"
            )
    for case in GOLDEN_PRODUCT:
        pi = Permutation.from_text(case["pi"])
        orientation = Orientation(frozenset(case["u"]), frozenset(case["d"]), pi.n)
        trace = permutree_sort(pi, orientation)
        got_rows = [
            (str(s.pi), tuple(sorted(s.u)), tuple(sorted(s.d)), s.letter, s.checks)
            for s in trace.steps
        ]
        want_rows = [tuple(row) for row in case["rows"]]
        if got_rows != want_rows:
            violations.append(f"product {case['pi']}: rows {got_rows} != {want_rows}")
        if trace.word.letters != case["word"] or str(trace.result) != case["final"]:
            violations.append(
                f"product {case['pi']}: word {trace.word} final {trace.result}"
            )
    return violations


# Reduced-expression statistics: permutation, automaton parameter, and the
# exact multiset of final states as (status, param, count) triples.
END_STATE_CASES = [
    ("4312", 2, 5, {("healthy", 4): 5}),
    ("32145", 4, 2, {("healthy", 4): 2}),
    ("43215", 4, 16, {("ill", 4): 16}),
    ("43251", 4, 35, {("dead", 4): 35}),
    ("4321", 2, 16, {("ill", 4): 7, ("dead", 2): 7, ("dead", 3): 2}),
]


def check_end_state_stats() -> Violations:
    violations = []
    for text, j, total, want in END_STATE_CASES:
        pi = Permutation.from_text(text)
        words = all_reduced_words(pi)
        if len(words) != total:
            violations.append(f"{text}: {len(words)} reduced expressions, expected {total}")
        got: dict[tuple[str, int], int] = {}
        for word in words:
            column, status = label(Kind.UP, j, run(Kind.UP, j, pi.n, word))
            key = (status.value, column)
            got[key] = got.get(key, 0) + 1
        if got != want:
            violations.append(f"{text}: final-state counts {got} != {want}")
    return violations


def check_unique_final_state(max_n: int) -> Violations:
    """Accepted reduced expressions end at one state, in the predicted column;
    the refined trichotomy on (ninv above, ninv below) holds."""
    violations = []
    for n in range(2, max_n + 1):
        for pi in all_permutations(n):
            words = all_reduced_words(pi)
            for j in range(2, n):
                for kind in (Kind.UP, Kind.DOWN):
                    # (column, status) labels of the final states
                    finals = [label(kind, j, run(kind, j, n, w)) for w in words]
                    accepted = {s for s in finals if s[1] is not Status.DEAD}
                    if len(accepted) > 1:
                        violations.append(f"n={n} pi={pi} j={j} {kind.value}: {accepted}")
                        continue
                    column = expected_final_column(pi, kind, j)
                    if any(s[0] != column for s in accepted):
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: column != {column}"
                        )
                    above, below = ninv_stats(pi, j)
                    outer, inner = (above, below) if kind is Kind.UP else (below, above)
                    # outer == 0: every reduced expression ends at one healthy state;
                    # inner == 0: every reduced expression ends at one common state;
                    # otherwise accepted ones share a single ill state.
                    if outer == 0:
                        if len(set(finals)) != 1 or finals[0][1] is not Status.HEALTHY:
                            violations.append(
                                f"n={n} pi={pi} j={j} {kind.value}: healthy case violated"
                            )
                    elif inner == 0:
                        if len(set(finals)) != 1:
                            violations.append(
                                f"n={n} pi={pi} j={j} {kind.value}: common-state case violated"
                            )
                    elif accepted and next(iter(accepted))[1] is not Status.ILL:
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: accepted state not ill"
                        )
    return violations


def check_counting(max_n: int) -> Violations:
    """Partition orientations count Catalan many minimal permutations; the
    empty orientation counts everything."""
    violations = []
    for n in range(2, max_n + 1):
        want = catalan(n)
        for orientation in partition_orientations(n):
            got = count_minimal(n, orientation)
            if got != want:
                violations.append(
                    f"n={n} u={sorted(orientation.u)} d={sorted(orientation.d)}: {got} != {want}"
                )
        empty = Orientation(frozenset(), frozenset(), n)
        factorial = math.factorial(n)
        if count_minimal(n, empty) != factorial:
            violations.append(f"n={n}: empty orientation count != {factorial}")
    return violations


def check_csorting(max_n: int) -> Violations:
    """The five sortability characterizations agree for every Coxeter word,
    every permutation; sortable counts are Catalan; the worked fact about
    4213 holds.  For max_n >= 5 the stated claim that 41325 is c-sortable
    for no Coxeter word is refuted, and the refutation is reported as the
    one expected line: 41325 is sorted by the four words placing s3 before
    s2 before s1."""
    violations = []
    for n in range(2, max_n + 1):
        want = catalan(n)
        for c in all_coxeter_words(n):
            report = verify_csorting_equivalences(n, c)
            for pi, conditions in report.violations:
                violations.append(f"n={n} c={c}: pi={pi} conditions={conditions}")
            if report.sortable_count != want:
                violations.append(f"n={n} c={c}: {report.sortable_count} sortable != {want}")
    # the sorting word of 4213 under c = s2.s1.s3 is s1.s3.s2.s1, rejected by
    # the up-automaton at 2, although 4213 avoids the corresponding subword
    pi = Permutation.from_text("4213")
    c = CoxeterWord(Word((2, 1, 3), 4))
    word = c_sorting_word(pi, c)
    if word.letters != (1, 3, 2, 1):
        violations.append(f"sorting word of 4213: {word}")
    if accepts(Kind.UP, 2, 4, word):
        violations.append("sorting word of 4213 unexpectedly accepted")
    if contains_pattern(pi, 2, Kind.UP):
        violations.append("4213 unexpectedly contains the up-subword at 2")
    if max_n >= 5:
        stated = Permutation.from_text("41325")
        sortable_for = [str(c) for c in all_coxeter_words(5) if is_c_sortable(stated, c)]
        if sortable_for:
            violations.append(
                f"41325 is c-sortable for {len(sortable_for)} Coxeter words "
                f"({'; '.join(sortable_for)}), not for none"
            )
    return violations


NETWORK_POSITIVES = [
    ((1, 2, 4, 3, 2, 1, 4, 3, 2), (4,), (2,), 5),
    ((3, 2, 1, 3, 2, 1), (2,), (), 4),
]


def check_networks() -> Violations:
    """No reduced word of 54321 decides ({2},{4})-minimality, with 54213 and
    35421 jointly refuting every candidate; the two known good templates pass."""
    violations = []
    orientation = Orientation(frozenset({2}), frozenset({4}), 5)
    w0 = Permutation.from_text("54321")
    witnesses = [Permutation.from_text("54213"), Permutation.from_text("35421")]
    candidates = all_reduced_words(w0)
    if len(candidates) != 768:
        violations.append(f"54321 has {len(candidates)} reduced words, expected 768")
    for template in candidates:
        if check_sorting_network(template, orientation) is None:
            violations.append(f"valid network found: {template}")
        if not any(network_mismatch(template, orientation, pi) for pi in witnesses):
            violations.append(f"{template} not refuted by the two witnesses")
    for letters, u, d, n in NETWORK_POSITIVES:
        template = Word(letters, n)
        orientation = Orientation(frozenset(u), frozenset(d), n)
        counterexample = check_sorting_network(template, orientation)
        if counterexample is not None:
            violations.append(f"{template} refuted by {counterexample}")
    return violations


def check_stack_sort(max_n: int) -> Violations:
    """Stack sortability, 231-avoidance, full-up-orientation minimality, and
    sorting success all coincide; counts are Catalan.  The 231 test scans
    every triple of entries, independently of the subword scan behind
    is_minimal."""
    violations = []
    for n in range(2, max_n + 1):
        orientation = Orientation(frozenset(range(2, n)), frozenset(), n)
        count = 0
        for pi in all_permutations(n):
            sorted_flag = stack_sort(pi).is_identity()
            avoid_flag = not any(c < a < b for a, b, c in itertools.combinations(pi.entries, 3))
            minimal_flag = is_minimal(pi, orientation)
            success_flag = permutree_sort(pi, orientation).success
            if not sorted_flag == avoid_flag == minimal_flag == success_flag:
                violations.append(
                    f"n={n} pi={pi}: stack={sorted_flag} avoid={avoid_flag} "
                    f"minimal={minimal_flag} sort={success_flag}"
                )
            count += sorted_flag
        if count != catalan(n):
            violations.append(f"n={n}: {count} stack-sortable != C_n={catalan(n)}")
    return violations


# check_prefix_closure tries the natural priority and this many seeded shuffles
PREFIX_SHUFFLES = 3
PREFIX_SEED = 20260809


def check_prefix_closure(max_n: int) -> Violations:
    """A reduced word is accepted iff every prefix is sortable; lexmin words are prefix-closed.

    Checked as: w.l, a reduced word of pi, is accepted iff w is and pi is minimal.
    Each prefix is a reduced word of its own permutation, so induction does the rest.
    """
    violations = []
    rng = random.Random(PREFIX_SEED)
    for n in range(2, max_n + 1):
        priorities = [PriorityOrder.natural(n)] + [
            PriorityOrder.shuffled(n, rng) for _ in range(PREFIX_SHUFFLES)
        ]
        orientations = list(disjoint_orientations(n))
        steppers = [
            (o, functools.partial(step_product, product_table(o)), initial_product(o))
            for o in orientations
        ]
        for pi in all_permutations(n):
            words = all_reduced_words(pi)
            for orientation, advance, start in steppers:
                minimal = is_minimal(pi, orientation)
                for word in words:
                    head = functools.reduce(advance, word.letters[:-1], start)
                    last = advance(head, word.letters[-1]) if word else head
                    head_ok = classify(head) is not Status.DEAD
                    accepted = classify(last) is not Status.DEAD
                    if accepted != (head_ok and minimal):
                        violations.append(
                            f"n={n} {orientation} word {word}: accepted={accepted} "
                            f"prefix accepted={head_ok} minimal={minimal}"
                        )
        for priority in priorities:
            for orientation in orientations:
                table = {}
                for pi in all_permutations(n):
                    word = lexmin_word(pi, orientation, priority)
                    if word is not None:
                        table[pi] = word
                for pi, word in table.items():
                    for cut in range(len(word)):
                        prefix = Word(word.letters[:cut], n)
                        owner = evaluate(prefix)
                        if table.get(owner) != prefix:
                            violations.append(
                                f"n={n} priority={priority.order} "
                                f"u={sorted(orientation.u)} d={sorted(orientation.d)}: "
                                f"prefix {prefix} of {word} is not the word of {owner}"
                            )
    return violations


SUITES: dict[str, tuple[Callable[..., Violations], int | None, int | None]] = {
    # name: (runner, default bound, max bound); None = the suite has a fixed size
    "theorem1": (check_theorem_single, 5, 6),
    "theorem2": (check_theorem_product, 5, 6),
    "tables": (check_golden_tables, None, None),
    "endstats": (check_end_state_stats, None, None),
    "uniquestate": (check_unique_final_state, 5, 6),
    "counting": (check_counting, 5, 6),
    "csorting": (check_csorting, 5, 5),
    "networks": (check_networks, None, None),
    "stacksort": (check_stack_sort, 7, 7),
    "prefix": (check_prefix_closure, 5, 5),
}


def suite_bound(name: str, bound: int | None = None) -> int | None:
    """The bound the suite runs at, None for a fixed-size suite; ValueError past its cap."""
    _, default_bound, max_bound = SUITES[name]
    if default_bound is None:
        return None
    n = bound if bound is not None else default_bound
    if n > max_bound:
        raise ValueError(
            f"suite {name} is capped at n={max_bound}; enumerating all reduced "
            f"expressions beyond that is not worth the wait"
        )
    return n


def run_suite(name: str, bound: int | None = None) -> Violations:
    runner = SUITES[name][0]
    n = suite_bound(name, bound)
    return runner() if n is None else runner(n)
