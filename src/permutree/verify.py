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
    right_multiply,
    stack_sort,
)
from .automata import (
    Status,
    accepts,
    dead_mask,
    initial_product,
    label,
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
    PriorityOrder,
    check_sorting_network,
    network_mismatch,
    permutree_sort,
    sort_single,
)
from .trees import count_minimal, generating_tree

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


def final_vectors(n: int) -> Iterator[tuple[Permutation, dict[tuple[int, ...], int]]]:
    """Each pi of S_n in order, with {final vector: its number of reduced words
    ending there}, a vector holding the states of all 2(n-2) automata.  The
    reduced words of pi are those of pi * s_l followed by l, over its right
    descents l (Bjorner and Brenti, ch. 3), so no word is built.

    >>> sum(dict(final_vectors(4))[Permutation.from_text("4321")].values())
    16
    """
    full = Orientation(frozenset(range(2, n)), frozenset(range(2, n)), n)
    rows = product_table(full)
    perms = list(all_permutations(n))  # the identity first
    finals = {perms[0].entries: {initial_product(full): 1}}
    for pi in sorted(perms[1:], key=Permutation.length):  # outward from the identity
        e = pi.entries
        counts = finals[e] = {}
        for l in range(1, n):
            if e[l - 1] > e[l]:
                for vector, count in finals[(*e[: l - 1], e[l], e[l - 1], *e[l + 1 :])].items():
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
    for text, j, total, want in END_STATE_CASES:
        pi = Permutation.from_text(text)
        finals = dict(final_vectors(pi.n))[pi]
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
                    if len(accepted) > 1:
                        violations.append(f"n={n} pi={pi} j={j} {kind.value}: {accepted}")
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


def least_accepted(
    ends: list[tuple[int, tuple[int, ...]]], priority: PriorityOrder, masks: list[int]
) -> list[Word | None]:
    """For each orientation mask, the priority-least accepted reduced word of
    one permutation, or None.  ends holds each final vector's dead mask and
    the ranks in priority.rank of the least word ending there; all have pi's
    length, so the least ranks are the priority-least word.  Dead is
    absorbing, so a word is accepted iff its dead mask misses the
    orientation's.  Each Word is built once and shared by the masks it answers.
    """
    kept = sorted(ends, key=lambda end: end[1])
    picks = [next((ranks for dead, ranks in kept if not dead & mask), None) for mask in masks]
    order, n = priority.order, priority.n
    words = {ranks: Word(tuple(order[r] for r in ranks), n) for ranks in set(picks) - {None}}
    return [words.get(ranks) for ranks in picks]


def check_prefix_closure(max_n: int) -> Violations:
    """A reduced word is accepted iff every prefix is sortable; lexmin words are prefix-closed.

    Checked as: w.l, a reduced word of pi, is accepted iff w is and pi is minimal.
    Each prefix is a reduced word of its own permutation, so induction does the rest.
    Words are stepped through the vector of all 2(n-2) automata (u = d = 2..n-1),
    where an orientation is a bitmask that rejects a word iff it meets the word's
    dead mask.  As in final_vectors, one pass steps each final vector of pi * s_l
    by each right descent l of pi.  It keeps pi's pairs of dead masks (of a word's
    head, of the whole word), tested once per orientation, and per final vector
    and priority the ranks of the least word ending there: the lexmin table,
    checked against generating_tree, which grows its words by that same claim.
    Only where a pair fails are pi's words enumerated, so each violation names its word.
    """
    violations = []
    rng = random.Random(PREFIX_SEED)
    for n in range(2, max_n + 1):
        # S_2 has one order of its letters and S_3 two: keep each distinct one once
        shuffles = [PriorityOrder.shuffled(n, rng) for _ in range(PREFIX_SHUFFLES)]
        priorities = list(dict.fromkeys([PriorityOrder.natural(n), *shuffles]))
        orientations = list(disjoint_orientations(n))
        full = Orientation(frozenset(range(2, n)), frozenset(range(2, n)), n)
        rows, start = product_table(full), initial_product(full)
        masks = [component_mask(o) for o in orientations]
        perms = list(all_permutations(n))  # the identity first
        # least[e]: final vector -> the ranks of the least word ending there, per priority
        least = {perms[0].entries: {start: ((),) * len(priorities)}}
        pairs = {perms[0].entries: {(0, 0)}}  # the empty word's: nothing is dead at the start
        for pi in sorted(perms[1:], key=Permutation.length):  # outward from the identity
            e = pi.entries
            ends, dead_pairs = least[e], pairs[e] = {}, set()
            for l in range(1, n):
                if e[l - 1] > e[l]:
                    rank = [(priority.rank[l],) for priority in priorities]
                    for vector, heads in least[(*e[: l - 1], e[l], e[l - 1], *e[l + 1 :])].items():
                        stepped = step_product(rows, vector, l)
                        dead_pairs.add((dead_mask(vector), dead_mask(stepped)))
                        grown = tuple(head + r for head, r in zip(heads, rank))
                        ends[stepped] = tuple(map(min, ends.get(stepped, grown), grown))
        # tables[i][k]: pi -> lexmin word under priorities[i] and orientations[k], in the order of S_n
        tables = [[{} for _ in orientations] for _ in priorities]
        for pi in perms:
            for orientation, mask in zip(orientations, masks):
                minimal = is_minimal(pi, orientation)
                if all(
                    (not last_dead & mask) == (not head_dead & mask and minimal)
                    for head_dead, last_dead in pairs[pi.entries]
                ):
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
            ends = [(dead_mask(vector), ranks) for vector, ranks in least[pi.entries].items()]
            for i, (priority, row) in enumerate(zip(priorities, tables)):
                words = least_accepted([(dead, ranks[i]) for dead, ranks in ends], priority, masks)
                for table, word in zip(row, words):
                    if word is not None:
                        table[pi] = word
        for priority, row in zip(priorities, tables):
            for orientation, table in zip(orientations, row):
                # the tree, built without the pass, must give every
                # node the table's word, and hold no other permutation
                tree = {
                    evaluate(node): node
                    for node in generating_tree(orientation, priority).nodes
                }
                where = (
                    f"n={n} priority={priority.order} "
                    f"u={sorted(orientation.u)} d={sorted(orientation.d)}"
                )
                # each word's parent is the word of pi * s_last; by induction on
                # length every prefix is then the word of its own permutation.
                # A word whose parent is wrong is not compared with the tree.
                mismatches = []
                for pi, word in table.items():
                    node = tree.pop(pi, None)
                    if word:
                        prefix = Word(word.letters[:-1], n)
                        owner = right_multiply(pi, word.letters[-1])
                        if table.get(owner) != prefix:
                            violations.append(
                                f"{where}: prefix {prefix} of {word} is not the word of {owner}"
                            )
                            continue
                    if node != word:
                        mismatches.append((pi, node, word))
                mismatches += [(pi, node, None) for pi, node in tree.items()]
                violations += [
                    f"{where}: tree word {node} of {pi} is not its lexmin word {word}"
                    for pi, node, word in mismatches
                ]
    return violations


SUITES: dict[str, tuple[Callable[..., Violations], int | None, int | None]] = {
    # name: (runner, default bound, max bound); None = the suite has a fixed size
    "theorem1": (check_theorem_single, 5, 7),
    "theorem2": (check_theorem_product, 5, 7),
    "tables": (check_golden_tables, None, None),
    "endstats": (check_end_state_stats, None, None),
    "uniquestate": (check_unique_final_state, 5, 7),
    "counting": (check_counting, 5, 6),
    "csorting": (check_csorting, 5, 5),
    "networks": (check_networks, None, None),
    "stacksort": (check_stack_sort, 7, 7),
    "prefix": (check_prefix_closure, 5, 6),
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
