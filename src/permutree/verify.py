"""
Exhaustive verification suites.

Each suite re-proves one of the package's mathematical guarantees on small
symmetric groups by comparing two independent routes (typically the final
automaton states of all reduced expressions, from final_vectors, against a
subword predicate) and returns a list of violation strings; empty is a pass.
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
    PriorityOrder,
    Word,
    all_permutations,
    all_reduced_words,
    contains_pattern,
    is_minimal,
    ninv_stats,
    right_swap,
    stack_sort,
)
from .automata import (
    STATUSES,
    Status,
    accepts,
    dead_mask,
    initial_product,
    label,
    merge_dead,
    product_accepts,
    product_table,
    step_product,
)
from .coxeter import (
    CoxeterWord,
    all_coxeter_words,
    c_sorting,
    c_sorting_word,
    is_c_sortable,
    is_decreasing,
    orientation_of,
)
from .sorting import (
    check_sorting_network,
    network_mismatch,
    permutree_sort,
    sort_single,
)
from .trees import GeneratingTree, count_minimal, generating_trees

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


def component_index(kind: Kind, j: int, n: int) -> int:
    """The place of (kind, j) in final_vectors' vectors: UP 2..n-1, then DOWN 2..n-1."""
    return j - 2 if kind is Kind.UP else n + j - 4


def component_mask(orientation: Orientation) -> int:
    """An orientation accepts some reduced word of pi iff a final's dead_mask misses this."""
    return sum(1 << component_index(kind, j, orientation.n) for kind, j in orientation.components)


def weak_order(n: int):
    """The rows and start state of the vector of all 2(n-2) automata, in component_index
    order, S_n in order, and the covers (entries of pi, l, entries of pi * s_l) over the
    right descents l of each pi, pi outward from the identity: the reduced words of pi
    are those of pi * s_l followed by l (Bjorner and Brenti, ch. 3)."""
    every = tuple((kind, j) for kind in Kind for j in range(2, n))
    perms = list(all_permutations(n))
    outward = (pi.entries for pi in sorted(perms[1:], key=Permutation.length))
    covers = ((e, l, right_swap(e, l)) for e in outward for l in range(1, n) if e[l - 1] > e[l])
    return product_table(every, n), initial_product(every), perms, covers


def final_vectors(n: int) -> Iterator[tuple[Permutation, dict[tuple[int, ...], int]]]:
    """Each pi of S_n in order, with {final vector: its number of reduced words
    ending there}, a vector holding the states of all 2(n-2) automata, read
    off one weak_order pass.

    >>> sum(dict(final_vectors(4))[Permutation.from_text("4321")].values())
    16
    """
    rows, start, perms, covers = weak_order(n)
    finals = {perms[0].entries: {start: 1}}
    for e, l, below in covers:
        counts = finals.setdefault(e, {})
        for vector, count in finals[below].items():
            stepped = step_product(rows, vector, l)
            counts[stepped] = counts.get(stepped, 0) + count
    for pi in perms:
        yield pi, finals[pi.entries]


def check_theorem_single(max_n: int) -> Violations:
    """Single automaton acceptance (final states) vs subword avoidance, n up to max_n."""
    violations = []
    for n in range(2, max_n + 1):
        for pi, finals in final_vectors(n):
            deads = {dead_mask(vector) for vector in finals}
            for j in range(2, n):
                for kind in (Kind.UP, Kind.DOWN):
                    bit = 1 << component_index(kind, j, n)
                    by_automaton = any(not dead & bit for dead in deads)
                    by_pattern = not contains_pattern(pi, j, kind)
                    if by_automaton != by_pattern:
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: "
                            f"automaton={by_automaton} pattern={by_pattern}"
                        )
    return violations


def check_theorem_product(max_n: int) -> Violations:
    """Intersection acceptance (final states) vs combined avoidance, all disjoint orientations."""
    violations = []
    for n in range(2, max_n + 1):
        orientations = [(o, component_mask(o)) for o in disjoint_orientations(n)]
        for pi, finals in final_vectors(n):
            deads = {dead_mask(vector) for vector in finals}
            for orientation, mask in orientations:
                by_automata = any(not dead & mask for dead in deads)
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
    runs = []  # (algorithm, case, trace, rows of the trace in the case's form)
    for case in GOLDEN_SINGLE:
        pi = Permutation.from_text(case["pi"])
        trace = sort_single(pi, case["j"], Kind.UP)
        got_rows = [(str(s.pi), next(iter(s.u)), s.letter) for s in trace.steps]
        runs.append(("single", case, trace, got_rows))
    for case in GOLDEN_PRODUCT:
        pi = Permutation.from_text(case["pi"])
        orientation = Orientation(frozenset(case["u"]), frozenset(case["d"]), pi.n)
        trace = permutree_sort(pi, orientation)
        got_rows = [
            (str(s.pi), tuple(sorted(s.u)), tuple(sorted(s.d)), s.letter, s.checks)
            for s in trace.steps
        ]
        runs.append(("product", case, trace, got_rows))
    violations = []
    for algorithm, case, trace, got_rows in runs:
        want_rows = [tuple(row) for row in case["rows"]]
        if got_rows != want_rows:
            violations.append(f"{algorithm} {case['pi']}: rows {got_rows} != {want_rows}")
        if trace.word.letters != case["word"] or str(trace.result) != case["final"]:
            violations.append(
                f"{algorithm} {case['pi']}: word {trace.word} final {trace.result}"
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
    degrees = sorted({len(text) for text, *_ in END_STATE_CASES})  # one pass per degree
    finals_of = {pi: finals for n in degrees for pi, finals in final_vectors(n)}
    for text, j, total, want in END_STATE_CASES:
        pi = Permutation.from_text(text)
        finals = finals_of[pi]
        if (words := sum(finals.values())) != total:
            violations.append(f"{text}: {words} reduced expressions, expected {total}")
        got: dict[tuple[str, int], int] = {}
        for vector, count in finals.items():
            column, status = label(Kind.UP, j, vector[component_index(Kind.UP, j, pi.n)])
            key = (status.value, column)
            got[key] = got.get(key, 0) + count
        if got != want:
            violations.append(f"{text}: final-state counts {got} != {want}")
    return violations


def check_unique_final_state(max_n: int) -> Violations:
    """Accepted reduced expressions end at one state, in the predicted column;
    the refined trichotomy on (ninv above, ninv below) holds."""
    violations = []
    for n in range(2, max_n + 1):
        for pi, finals in final_vectors(n):
            for j in range(2, n):
                above, below = ninv_stats(pi, j)
                for kind in (Kind.UP, Kind.DOWN):
                    # (column, status) labels of the final states
                    labels = {label(kind, j, v[component_index(kind, j, n)]) for v in finals}
                    accepted = {s for s in labels if s[1] is not Status.DEAD}
                    if len(accepted) > 1:  # listed by column, then status
                        listed = sorted(accepted, key=lambda s: (s[0], STATUSES.index(s[1])))
                        shown = ", ".join(map(str, listed))
                        violations.append(f"n={n} pi={pi} j={j} {kind.value}: {{{shown}}}")
                        continue
                    # accepted UP runs end ninv_below columns right of j,
                    # DOWN runs ninv_above columns left of it
                    column = j + below if kind is Kind.UP else j - above
                    if any(s[0] != column for s in accepted):
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: column != {column}"
                        )
                    outer, inner = (above, below) if kind is Kind.UP else (below, above)
                    # outer == 0: every reduced expression ends at one healthy state;
                    # inner == 0: every reduced expression ends at one common state;
                    # otherwise accepted ones share a single ill state.
                    if outer == 0:
                        if len(labels) != 1 or next(iter(labels))[1] is not Status.HEALTHY:
                            violations.append(
                                f"n={n} pi={pi} j={j} {kind.value}: healthy case violated"
                            )
                    elif inner == 0:
                        if len(labels) != 1:
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
            got = count_minimal(orientation)
            if got != want:
                violations.append(
                    f"n={n} u={sorted(orientation.u)} d={sorted(orientation.d)}: {got} != {want}"
                )
        empty = Orientation(frozenset(), frozenset(), n)
        factorial = math.factorial(n)
        if count_minimal(empty) != factorial:
            violations.append(f"n={n}: empty orientation count != {factorial}")
    return violations


def check_csorting(max_n: int) -> Violations:
    """Five characterizations of c-sortability agree for every Coxeter word c
    and permutation pi: (1) the blocks of pi's c-factorization decrease;
    (2) its c-sorting word and (3) some reduced word of pi pass every
    automaton of orientation_of(c); (4) for each j some reduced word of pi
    passes the one at j; (5) subword avoidance.  Sortable counts are Catalan.
    Conditions 1-2 are read from one greedy extraction per (pi, c), and 3-5
    once per distinct orientation, 3-4 off one final_vectors pass per degree.
    The worked fact about 4213 holds.  For max_n >= 5 the stated claim that
    41325 is c-sortable for no Coxeter word is refuted, and the refutation is
    reported as the one expected line: 41325 is sorted by the four words
    placing s3 before s2 before s1."""
    violations = []
    for n in range(2, max_n + 1):
        want = catalan(n)
        perms, dead_masks = zip(*((pi, {dead_mask(v) for v in f}) for pi, f in final_vectors(n)))
        words = tuple(all_coxeter_words(n))
        orientations = [orientation_of(c) for c in words]
        shared = {}  # orientation -> conditions 3-5 of each permutation, in the order of S_n
        for orientation in dict.fromkeys(orientations):
            mask = component_mask(orientation)
            singles = [1 << component_index(kind, j, n) for kind, j in orientation.components]
            shared[orientation] = [
                (
                    any(not dead & mask for dead in deads),
                    all(any(not dead & single for dead in deads) for single in singles),
                    is_minimal(pi, orientation),
                )
                for pi, deads in zip(perms, dead_masks)
            ]
        for c, orientation in zip(words, orientations):
            sortable = 0
            for pi, orientation_conditions in zip(perms, shared[orientation]):
                blocks, word = c_sorting(pi, c)
                conditions = (
                    is_decreasing(blocks),
                    product_accepts(orientation, word),
                    *orientation_conditions,
                )
                sortable += all(conditions)
                if len(set(conditions)) > 1:
                    violations.append(f"n={n} c={c}: pi={pi} conditions={conditions}")
            if sortable != want:
                violations.append(f"n={n} c={c}: {sortable} sortable != {want}")
    # the sorting word of 4213 under c = s2.s1.s3 is s1.s3.s2.s1, rejected by
    # the up-automaton at 2, although 4213 avoids the corresponding subword
    pi = Permutation.from_text("4213")
    c = CoxeterWord(Word((2, 1, 3), 4))
    word = c_sorting_word(pi, c)
    if word.letters != (1, 3, 2, 1):
        violations.append(f"sorting word of 4213: {word}")
    if accepts(Kind.UP, 2, word):
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
    35421 jointly refuting every candidate; the two known good templates pass.

    A witness that refutes a template is a counterexample in S_5, so only a
    template neither witness refutes is scanned over all of S_5.
    """
    violations = []
    orientation = Orientation(frozenset({2}), frozenset({4}), 5)
    w0 = Permutation.from_text("54321")
    witnesses = [Permutation.from_text("54213"), Permutation.from_text("35421")]
    candidates = all_reduced_words(w0)
    if len(candidates) != 768:
        violations.append(f"54321 has {len(candidates)} reduced words, expected 768")
    for template in candidates:
        if any(network_mismatch(template, orientation, pi) for pi in witnesses):
            continue
        if check_sorting_network(template, orientation) is None:
            violations.append(f"valid network found: {template}")
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
    every triple of entries, independently of the pattern masks behind
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


def prefix_pass(n: int, priorities: list[PriorityOrder]):
    """check_prefix_closure's one pass over weak_order's covers, stepping
    merge_dead's rows: those rows, the start vector and S_n in order, then two
    dicts keyed by each pi's entries, {final vector: the ranks of the least word
    ending there, one tuple per priority} and the set of (dead mask of a word's
    head, of the whole word) over pi's reduced words."""
    rows, start, perms, covers = weak_order(n)
    rows, masks = merge_dead(rows), functools.cache(dead_mask)
    least = {perms[0].entries: {start: ((),) * len(priorities)}}
    pairs = {perms[0].entries: {(0, 0)}}  # the empty word's: nothing is dead at the start
    for e, l, below in covers:
        ends, dead_pairs = least.setdefault(e, {}), pairs.setdefault(e, set())
        rank = [(priority.rank[l],) for priority in priorities]
        for vector, heads in least[below].items():
            stepped = step_product(rows, vector, l)
            dead_pairs.add((masks(vector), masks(stepped)))
            grown = tuple(head + r for head, r in zip(heads, rank))
            ends[stepped] = tuple(map(min, ends.get(stepped, grown), grown))
    return rows, start, perms, least, pairs


def check_prefix_closure(max_n: int) -> Violations:
    """A reduced word is accepted iff every prefix is sortable; lexmin words are prefix-closed.

    Checked as: w.l, a reduced word of pi, is accepted iff w is and pi is minimal.
    Each prefix is a reduced word of its own permutation, so induction does the rest.
    prefix_pass steps each final vector of pi * s_l by l once, over weak_order's
    covers and with dead codes merged, and an orientation is a bitmask that rejects a
    word iff it meets the word's dead mask.  So each dead mask stands for the bitset
    of orientations it misses, and pi's pairs of dead masks (of a word's head, of the
    whole word) are tested against all orientations at once; only where a pair fails
    are pi's words enumerated, so each violation names its word.  The same bitsets
    give the orientations pi has an accepted end for, and an orientation's lexmin
    table, rank tuples keyed by one-line entries, is read over those pi alone.  One
    orientation at a time, its trees come from one generating_trees call and each
    priority's table is checked by table_violations; the lines are reported priority
    by priority.  Besides S_n and the trees' nodes, objects are built only to print.
    """
    violations = []
    rng = random.Random(PREFIX_SEED)
    for n in range(2, max_n + 1):
        # S_2 has one order of its letters and S_3 two: keep each distinct one once
        shuffles = [PriorityOrder.shuffled(n, rng) for _ in range(PREFIX_SHUFFLES)]
        priorities = list(dict.fromkeys([PriorityOrder.natural(n), *shuffles]))
        orientations = [(o, component_mask(o)) for o in disjoint_orientations(n)]
        rows, start, perms, least, pairs = prefix_pass(n, priorities)
        # misses[dead]: bit k set iff the dead mask misses the k-th orientation's
        misses = [
            sum(1 << k for k, (_, mask) in enumerate(orientations) if not dead & mask)
            for dead in range(1 << 2 * (n - 2))
        ]
        every = (1 << len(orientations)) - 1
        for pi in perms:
            # the orientations where every pair's head and whole word agree, and
            # where every word is rejected: w.l checks out there if pi is minimal,
            # and if it is not; where both hold, whatever it is
            agree = reject = every
            for head_dead, last_dead in pairs[pi.entries]:
                agree &= ~(misses[head_dead] ^ misses[last_dead])
                reject &= ~misses[last_dead]
            for k, (orientation, mask) in enumerate(orientations):
                if (agree & reject) >> k & 1:
                    continue
                minimal = is_minimal(pi, orientation)
                if (agree if minimal else reject) >> k & 1:
                    continue
                for word in all_reduced_words(pi):
                    head = last = start
                    for letter in word.letters:
                        head, last = last, step_product(rows, last, letter)
                    head_ok, accepted = not dead_mask(head) & mask, not dead_mask(last) & mask
                    if accepted != (head_ok and minimal):
                        violations.append(
                            f"n={n} {orientation} word {word}: accepted={accepted} "
                            f"prefix accepted={head_ok} minimal={minimal}"
                        )
        # each pi with an accepted end: its entries, the bits of the orientations it
        # has one for, and per priority its (ranks of the least word ending at a dead
        # mask, that mask) pairs, least first: all of pi's words have its length, so
        # the first whose mask misses an orientation's is its lexmin word
        kept = []
        for pi in perms:
            firsts = {}  # dead mask -> the ranks of the least word ending there, per priority
            for v, ranks in least[pi.entries].items():
                dead = dead_mask(v)
                firsts[dead] = tuple(map(min, firsts.get(dead, ranks), ranks))
            reached = 0
            for dead in firsts:
                reached |= misses[dead]
            if reached:
                orders = [sorted((r[i], d) for d, r in firsts.items()) for i in range(len(priorities))]
                kept.append((pi.entries, reached, orders))
        buffered = [[] for _ in priorities]
        for k, (orientation, mask) in enumerate(orientations):
            reachable = [(e, orders) for e, reached, orders in kept if reached >> k & 1]
            trees = generating_trees(orientation, priorities)
            for i, (priority, tree) in enumerate(zip(priorities, trees)):
                table = {}  # entries -> the ranks of their lexmin word, in the order of S_n
                for e, orders in reachable:
                    for ranks, dead in orders[i]:
                        if not dead & mask:
                            table[e] = ranks
                            break
                buffered[i] += table_violations(table, orientation, priority, tree)
        violations += itertools.chain.from_iterable(buffered)
    return violations


def table_violations(
    table: dict, orientation: Orientation, priority: PriorityOrder, tree: GeneratingTree
) -> Violations:
    """Where a lexmin table (one-line entries -> the ranks of their lexmin words) fails.
    Each word's parent must be the word of pi * s_last: by induction on length, every
    prefix is then the word of its own permutation.  A word whose parent is right must
    be its node's word in the generating tree of the orientation and priority, which
    is built without the table and must hold no other permutation.  Words are
    compared as letter tuples; a Word or Permutation is built only to print a line,
    and a missing word prints as None."""
    n, order = priority.n, priority.order
    where = f"n={n} priority={order} u={sorted(orientation.u)} d={sorted(orientation.d)}"
    nodes = dict(zip(tree.entries, tree.words))
    violations, mismatches = [], []
    for e, ranks in table.items():
        node = nodes.pop(e, None)
        # built from a list, since tuple() of an iterator resizes and free lists hoard the results
        letters = tuple([order[r] for r in ranks])
        if letters:
            owner = right_swap(e, letters[-1])
            if table.get(owner) != ranks[:-1]:
                violations.append(
                    f"{where}: prefix {Word(letters[:-1], n)} of {Word(letters, n)} "
                    f"is not the word of {Permutation(owner)}"
                )
                continue
        if node != letters:
            mismatches.append((e, node, letters))
    mismatches += [(entries, node, None) for entries, node in nodes.items()]

    def shown(letters):
        return None if letters is None else Word(letters, n)

    return violations + [
        f"{where}: tree word {shown(node)} of {Permutation(e)} is not its lexmin word {shown(word)}"
        for e, node, word in mismatches
    ]


SUITES: dict[str, tuple[Callable[..., Violations], int | None, int | None]] = {
    # name: (runner, default bound, max bound); None = the suite has a fixed size
    "theorem1": (check_theorem_single, 5, 7),
    "theorem2": (check_theorem_product, 5, 7),
    "tables": (check_golden_tables, None, None),
    "endstats": (check_end_state_stats, None, None),
    "uniquestate": (check_unique_final_state, 5, 7),
    "counting": (check_counting, 5, 7),
    "csorting": (check_csorting, 5, 6),
    "networks": (check_networks, None, None),
    "stacksort": (check_stack_sort, 7, 7),
    "prefix": (check_prefix_closure, 5, 7),
}


def suite_bound(name: str, bound: int | None = None) -> int | None:
    """The bound the suite runs at, None for a fixed-size suite; ValueError past its cap."""
    _, default_bound, max_bound = SUITES[name]
    if default_bound is None:
        return None
    n = bound if bound is not None else default_bound
    if n > max_bound:
        raise ValueError(
            f"suite {name} is capped at n={max_bound}; beyond that it is not worth the wait"
        )
    return n


def run_suite(name: str, bound: int | None = None) -> Violations:
    runner = SUITES[name][0]
    n = suite_bound(name, bound)
    return runner() if n is None else runner(n)
