import collections
import gc
import itertools
import json
import math
import random
import tracemalloc
from dataclasses import dataclass

import pytest

from permutree import sorting
from permutree.core import (
    Kind,
    Orientation,
    Permutation,
    Residual,
    Word,
    all_permutations,
    contains_pattern,
    left_inversions,
    left_multiply,
    minimality_witness,
)
from permutree.automata import Status, accepts, label, product_accepts, run
from permutree.sorting import (
    PriorityOrder,
    TraceStep,
    _greedy_extract,
    check_sorting_network,
    is_minimal,
    network_candidate,
    network_mismatch,
    permutree_sort,
    sort_single,
)
from permutree.verify import disjoint_orientations
from oracles import (
    assert_same_text,
    evaluate,
    identity,
    is_left_inversion,
    oracle_contains_pattern,
    slow,
    written,
)

P = Permutation.from_text


def test_priority_order():
    # a mask's bit r stands for the r-th letter of the order
    natural = PriorityOrder.natural(4)
    assert natural.pick(0b111) == 1
    assert natural.pick(0b110) == 2
    flipped = PriorityOrder((3, 1, 2))
    assert flipped.pick(0b011) == 3
    assert flipped.pick(0b110) == 1
    assert flipped.pick(0b100) == 2
    assert flipped.pick(0) is None
    with pytest.raises(ValueError):
        PriorityOrder((1, 3))


def test_natural_priority_is_built_once_per_degree(monkeypatch):
    assert PriorityOrder.natural(5) is PriorityOrder.natural(5)
    built = []
    original = PriorityOrder.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PriorityOrder, "__post_init__", counted)
    for pi in all_permutations(5):
        permutree_sort(pi, Orientation(set(), set(), 5))
    assert built == []


def test_move_operations():
    # the oracle's movers; permutree_sort moves its sets inline
    assert oracle_move_u(frozenset({2}), 2) == frozenset({3})
    assert oracle_move_u(frozenset({3}), 2) == frozenset({3})
    assert oracle_move_d(frozenset({4}), 3) == frozenset({3})
    assert oracle_move_d(frozenset({2}), 3) == frozenset({2})


def test_single_sort_golden_success():
    trace = sort_single(P("3421"), 2, Kind.UP)
    assert trace.word == Word((2, 1, 3, 2, 3), 4)
    assert trace.success
    assert [(str(s.pi), next(iter(s.u)), s.letter) for s in trace.steps] == [
        ("3421", 2, 2),
        ("2431", 3, 1),
        ("1432", 3, 3),
        ("1342", 4, 2),
        ("1243", 4, 3),
    ]


def test_single_sort_golden_failure():
    trace = sort_single(P("4231"), 2, Kind.UP)
    assert trace.word == Word((3, 2, 1, 2), 4)
    assert not trace.success
    assert str(trace.result) == "1243"
    assert [(str(s.pi), next(iter(s.u)), s.letter) for s in trace.steps] == [
        ("4231", 2, 3),
        ("3241", 2, 2),
        ("2341", 3, 1),
        ("1342", 3, 2),
    ]


def test_single_sort_identity():
    trace = sort_single(identity(5), 3, Kind.UP)
    assert trace.word == Word((), 5)
    assert trace.success and not trace.steps


def test_single_sort_table_rendering():
    table = written(sort_single(P("3421"), 2, Kind.UP).to_table)
    assert table.splitlines()[2].startswith("3421 | e")
    assert "s2.s1.s3.s2.s3" in table


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_single_sort_always_accepted_success_iff_avoids(n):
    for pi in all_permutations(n):
        for j in range(2, n):
            for kind in (Kind.UP, Kind.DOWN):
                trace = sort_single(pi, j, kind)
                assert len(trace.word) == evaluate(trace.word).length()
                assert accepts(kind, j, trace.word)
                avoid = not contains_pattern(pi, j, kind)
                assert trace.success == avoid
                assert trace.success == (evaluate(trace.word) == pi)


@dataclass(frozen=True)
class OracleTrace:
    """What the oracle sorts return: a SortTrace's fields, its rows built as it ran."""

    steps: tuple
    word: Word
    result: Permutation
    final_u: frozenset
    final_d: frozenset
    kind: Kind | None = None

    @property
    def success(self):
        return self.result.is_identity()

    @property
    def final_masks(self):
        return mask_of(self.final_u), mask_of(self.final_d)


def final_sets(trace):
    """A trace's u and d after its last row, as sets."""
    return tuple(map(sorting._values, trace.final_masks))


def assert_same_trace(trace, want, context):
    """Every row's pi, sets, letter, checks, phase and applied, and the rest."""
    fields = ("steps", "word", "result", "final_masks", "kind")
    assert [getattr(trace, f) for f in fields] == [getattr(want, f) for f in fields], context


def oracle_sort_single(pi, j, kind, priority=None):
    """sort_single as it was: a priority order, and a finishing loop per value block."""
    n = pi.n
    if priority is None:
        priority = PriorityOrder.natural(n)
    rank = priority.rank.__getitem__
    up = kind is Kind.UP
    param = j
    steps = []
    taken = []

    def record(letter, phase):
        nonlocal pi
        sets = (frozenset({param}), frozenset()) if up else (frozenset(), frozenset({param}))
        steps.append(TraceStep(pi, sets[0], sets[1], letter, (), phase))
        taken.append(letter)
        pi = left_multiply(letter, pi)

    while True:
        forbidden = param - 1 if up else param
        letter = min((l for l in left_inversions(pi) if l != forbidden), key=rank, default=None)
        if letter is None:
            break
        record(letter, "healthy")
        if up and letter == param:
            param += 1
        elif not up and letter == param - 1:
            param -= 1

    ill_letter = param - 1 if up else param
    if 1 <= ill_letter <= n - 1 and is_left_inversion(pi, ill_letter):
        record(ill_letter, "ill")
        cut = param if up else param - 1
        for block in (range(1, cut), range(cut + 1, n)):
            allowed = set(block)
            while True:
                letter = min((l for l in left_inversions(pi) if l in allowed), key=rank, default=None)
                if letter is None:
                    break
                record(letter, "block")

    final_sets = (frozenset({param}), frozenset()) if up else (frozenset(), frozenset({param}))
    return OracleTrace(tuple(steps), Word(tuple(taken), n), pi, final_sets[0], final_sets[1], kind)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, slow(7)])
def test_single_sort_matches_oracle(n):
    cases = itertools.product(all_permutations(n), range(2, n), (Kind.UP, Kind.DOWN))
    for pi, j, kind in cases:
        trace, want = sort_single(pi, j, kind), oracle_sort_single(pi, j, kind)
        assert_same_trace(trace, want, (pi, j, kind))
        assert_same_text(written(trace.to_json), oracle_json(want), (pi, j, kind))
        assert_same_text(written(trace.to_table), oracle_table(want), (pi, j, kind))


def test_single_sort_finishes_in_either_block():
    # after the ill step, 3124 (up at 3) is finished by a letter below the
    # forbidden one, 3412 (down at 2) by a letter above it
    lower = sort_single(P("3124"), 3, Kind.UP)
    upper = sort_single(P("3412"), 2, Kind.DOWN)
    assert [(s.letter, s.phase) for s in lower.steps] == [(2, "ill"), (1, "block")]
    assert [(s.letter, s.phase) for s in upper.steps] == [(2, "ill"), (3, "block")]


# each phase's status before and after its letter
PHASE_STATUSES = {
    "healthy": (Status.HEALTHY, Status.HEALTHY),
    "ill": (Status.HEALTHY, Status.ILL),
    "block": (Status.ILL, Status.ILL),
}


def test_single_sort_walks_its_automaton():
    # each row's set holds the column that run reaches on the letters before
    # it, its phase names the statuses around its letter, and the final sets
    # hold the column of the whole word
    rows = 0
    for n in range(3, 7):
        for pi, j, kind in itertools.product(all_permutations(n), range(2, n), (Kind.UP, Kind.DOWN)):
            trace = sort_single(pi, j, kind)
            letters = trace.word.letters
            states = [label(kind, j, run(kind, j, Word(letters[:i], n))) for i in range(len(letters) + 1)]

            def sets(column):
                return ({column}, set()) if kind is Kind.UP else (set(), {column})

            steps = trace.steps
            for step, before, after in zip(steps, states, states[1:]):
                assert (step.u, step.d) == sets(before[0]), (pi, j, kind)
                assert (before[1], after[1]) == PHASE_STATUSES[step.phase], (pi, j, kind)
            assert final_sets(trace) == sets(states[-1][0]), (pi, j, kind)
            rows += len(steps)
    assert rows == 41_872


@pytest.mark.parametrize("j", [0, 1, 5, 6])
def test_single_automaton_routes_refuse_a_boundary_parameter(j):
    # j = 1 (DOWN) and j = n (UP) accept every word, so neither route takes them
    for route in (lambda: sort_single(identity(5), j, Kind.UP), lambda: network_candidate(Kind.DOWN, j, 5)):
        with pytest.raises(ValueError, match=rf"^j must lie in 2\.\.4, got {j}$"):
            route()


def test_product_sort_golden_3214():
    trace = permutree_sort(P("3214"), Orientation({3}, {2}, 4))
    assert trace.word == Word((1, 2, 1), 4)
    assert trace.success
    rows = [(str(s.pi), tuple(sorted(s.u)), tuple(sorted(s.d)), s.letter, s.checks) for s in trace.steps]
    assert rows == [
        ("3214", (3,), (2,), 1, ()),
        ("3124", (3,), (1,), 2, ((3, True),)),
        ("2134", (), (1,), 1, ((0, True),)),
    ]


def test_product_sort_golden_1324():
    trace = permutree_sort(P("1324"), Orientation({3}, {2}, 4))
    assert trace.word == Word((2,), 4)
    assert trace.success
    assert trace.steps[0].checks == ((1, True), (3, True))


def test_product_sort_golden_1342_stuck():
    trace = permutree_sort(P("1342"), Orientation({3}, {2}, 4))
    assert trace.word == Word((), 4)
    assert not trace.success
    assert str(trace.result) == "1342"
    (step,) = trace.steps
    assert step.letter == 2 and not step.applied
    assert step.checks == ((1, True), (3, False))


def test_product_sort_golden_54213():
    trace = permutree_sort(P("54213"), Orientation({2}, {4}, 5))
    assert trace.word == Word((3, 2, 1, 4, 3, 2, 1, 3), 5)
    assert trace.success
    rows = [(str(s.pi), tuple(sorted(s.u)), tuple(sorted(s.d)), s.letter) for s in trace.steps]
    assert rows == [
        ("54213", (2,), (4,), 3),
        ("53214", (2,), (3,), 2),
        ("52314", (3,), (2,), 1),
        ("51324", (3,), (1,), 4),
        ("41325", (3,), (1,), 3),
        ("31425", (4,), (1,), 2),
        ("21435", (4,), (1,), 1),
        ("12435", (4,), (), 3),
    ]
    assert trace.steps[6].checks == ((0, True),)
    assert trace.steps[7].checks == ((4, True),)


def test_product_sort_golden_15342():
    trace = permutree_sort(P("15342"), Orientation({2}, {4}, 5))
    assert trace.word == Word((2, 3, 4), 5)
    assert not trace.success
    assert str(trace.result) == "14235"
    last = trace.steps[-1]
    assert not last.applied
    assert last.letter == 3 and last.checks == ((2, False),)
    # the moved sets may pick up the harmless extreme values
    assert tuple(sorted(last.u)) == (5,) and tuple(sorted(last.d)) == (3,)


def test_product_sort_rejects_overlap():
    # the Orientation refuses the sets before the sort is reached
    with pytest.raises(ValueError, match="disjoint"):
        permutree_sort(P("3214"), Orientation({2}, {2}, 4))


@pytest.mark.parametrize("order", [(1,), (1, 2, 3)])
def test_product_sort_refuses_a_priority_of_another_degree(order):
    # 321 is minimal for the empty orientation; a priority of degree 2 left
    # the letter 2 out of every pick and made the sort stick
    degree = len(order) + 1
    with pytest.raises(ValueError, match=f"priority of degree {degree} for a permutation of degree 3"):
        permutree_sort(P("321"), Orientation(set(), set(), 3), PriorityOrder(order))


def test_product_sort_refuses_an_orientation_of_another_degree():
    # 4 is not in {2, 3}, yet under ({3}, {4}) of degree 5 the sort of 4321
    # succeeded with the word 1,3,2,1,3,2
    with pytest.raises(ValueError, match="orientation of degree 5 for a permutation of degree 4"):
        permutree_sort(P("4321"), Orientation({3}, {4}, 5))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_product_sort_accepted_and_decides_minimality(n):
    for orientation in disjoint_orientations(n):
        for pi in all_permutations(n):
            trace = permutree_sort(pi, orientation)
            assert len(trace.word) == evaluate(trace.word).length()
            assert product_accepts(orientation, trace.word)
            assert trace.success == is_minimal(pi, orientation)
            assert trace.success == (evaluate(trace.word) == pi)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_sort_prefixes_accepted(n):
    for orientation in disjoint_orientations(n):
        for pi in all_permutations(n):
            trace = permutree_sort(pi, orientation)
            for cut in range(len(trace.word) + 1):
                prefix = Word(trace.word.letters[:cut], n)
                assert product_accepts(orientation, prefix)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_sort_preserves_minimality_of_intermediates(n):
    # along a successful run, each intermediate is minimal for the moved sets
    for orientation in disjoint_orientations(n):
        for pi in all_permutations(n):
            if not is_minimal(pi, orientation):
                continue
            trace = permutree_sort(pi, orientation)
            for step in trace.steps:
                inner = Orientation(
                    frozenset(j for j in step.u if 2 <= j <= n - 1),
                    frozenset(j for j in step.d if 2 <= j <= n - 1),
                    n,
                )
                assert is_minimal(step.pi, inner)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_descent_freedom(n):
    # a minimal permutation has an accepted reduced expression starting with
    # any descent other than the single ill-making letter
    from permutree.core import all_reduced_words

    for pi in all_permutations(n):
        for j in range(2, n):
            if contains_pattern(pi, j, Kind.UP):
                continue
            for letter in range(1, n):
                if letter == j - 1 or not is_left_inversion(pi, letter):
                    continue
                assert any(
                    w.letters[0] == letter and accepts(Kind.UP, j, w)
                    for w in all_reduced_words(pi)
                )


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_full_up_orientation_is_stack_sorting(n):
    from permutree.core import stack_sort

    orientation = Orientation(frozenset(range(2, n)), frozenset(), n)
    for pi in all_permutations(n):
        assert permutree_sort(pi, orientation).success == stack_sort(pi).is_identity()


def test_priority_changes_word_not_outcome():
    pi = P("54213")
    orientation = Orientation({2}, {4}, 5)
    reversed_priority = PriorityOrder((4, 3, 2, 1))
    trace = permutree_sort(pi, orientation, reversed_priority)
    assert trace.success
    assert evaluate(trace.word) == pi
    assert trace.word != permutree_sort(pi, orientation).word


def test_is_minimal_examples():
    assert is_minimal(P("42135"), Orientation({2, 3, 4}, frozenset(), 5))
    assert not is_minimal(P("42135"), Orientation(frozenset(), {3}, 5))
    assert is_minimal(P("4231"), Orientation(frozenset(), frozenset(), 4))


def test_minimality_witness():
    j, kind, positions = minimality_witness(P("42135"), Orientation(frozenset(), {3}, 5))
    assert (j, kind) == (3, Kind.DOWN)
    assert positions == (1, 2, 4)
    assert minimality_witness(identity(4), Orientation({2, 3}, frozenset(), 4)) is None


# is_minimal of the same inputs is a case of
# test_core.py::test_an_input_of_another_degree_is_refused_before_a_permutation_is_built
@pytest.mark.parametrize("test", [minimality_witness])
def test_minimality_refuses_an_orientation_of_another_degree(test):
    # of 4321, ({2}, {}) of degree 3 got an answer about another degree, and
    # ({4}, {}) of degree 5 raised "j must lie in 2..3, got 4", naming neither
    for degree, u in ((3, {2}), (5, {4})):
        message = f"orientation of degree {degree} for a permutation of degree 4"
        with pytest.raises(ValueError, match=message):
            test(P("4321"), Orientation(u, frozenset(), degree))


def test_greedy_extract_cycles_the_template():
    # one pass of this template leaves 3421 unsorted; the cycled extraction
    # is its sorting-procedure word
    passes, residual = _greedy_extract(P("3421"), Word((3, 2, 1, 3, 2, 1), 4))
    assert passes == [(2, 1, 3, 2), (3,)]
    assert residual == identity(4)
    assert accepts(Kind.UP, 2, Word((2, 1, 3, 2, 3), 4))


def test_check_sorting_network_positive_cases():
    assert (
        check_sorting_network(Word((1, 2, 4, 3, 2, 1, 4, 3, 2), 5), Orientation({4}, {2}, 5))
        is None
    )
    assert check_sorting_network(Word((3, 2, 1, 3, 2, 1), 4), Orientation({2}, frozenset(), 4)) is None
    with pytest.raises(ValueError):
        check_sorting_network(Word((3, 2, 1), 4), Orientation({2}, frozenset(), 5))


def test_check_sorting_network_negative_case():
    # a fixed reduced expression of the top permutation cannot decide
    # ({2},{4})-minimality; two specific permutations disagree on the needed
    # first letter
    template = Word((1, 2, 1, 3, 2, 1, 4, 3, 2, 1), 5)
    assert evaluate(template) == P("54321")
    orientation = Orientation({2}, {4}, 5)
    counterexample = check_sorting_network(template, orientation)
    assert counterexample is not None
    assert network_mismatch(template, orientation, P("54213")) or network_mismatch(
        template, orientation, P("35421")
    )


def test_network_candidate_prefix():
    candidate = network_candidate(Kind.UP, 2, 4, extension=Word((2, 1), 4))
    assert candidate.letters[:4] == (3, 2, 1, 3)
    assert check_sorting_network(candidate, Orientation({2}, frozenset(), 4)) is None
    # the default extension also validates for this case
    default = network_candidate(Kind.UP, 2, 4)
    assert check_sorting_network(default, Orientation({2}, frozenset(), 4)) is None


def test_network_candidate_refuses_an_extension_of_another_degree():
    # it returned 3,2,1,3,1, a word of degree 4 ending in one of degree 3
    with pytest.raises(ValueError, match="extension of degree 3 for a template of degree 4"):
        network_candidate(Kind.UP, 2, 4, Word((1,), 3))


def test_trace_json_round_trip():
    trace = permutree_sort(P("3214"), Orientation({3}, {2}, 4))
    payload = json.loads(written(trace.to_json))
    assert payload["success"] is True
    assert payload["word"] == [1, 2, 1]
    assert payload["steps"][1]["checks"] == [[3, True]]


def test_rows_are_built_only_when_read(monkeypatch):
    # a trace keeps its decisions; its TraceSteps, and a Permutation per row,
    # are built only when steps is read, and no replay takes a letter
    # through a Residual: the sort takes one per applied row, the render none
    built = collections.Counter()

    def counted(name, fn):
        def wrapper(self, *args, **kwargs):
            built[name] += 1
            fn(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(TraceStep, "__init__", counted("TraceStep", TraceStep.__init__))
    monkeypatch.setattr(Permutation, "__post_init__", counted("Permutation", Permutation.__post_init__))
    monkeypatch.setattr(Residual, "take", counted("take", Residual.take))
    sorts = [
        (permutree_sort, P("54213"), Orientation({2}, {4}, 5)),  # ill rows
        (permutree_sort, P("15342"), Orientation({2}, {4}, 5)),  # stuck, with a row not applied
        (sort_single, P("3421"), 2, Kind.UP),
        (sort_single, P("4231"), 2, Kind.UP),  # fails
        (sort_single, P("3412"), 2, Kind.DOWN),  # a block row
    ]
    for sort, pi, *args in sorts:
        built.clear()
        trace = sort(pi, *args)
        assert built == {"Permutation": 1, "take": len(trace.word)}, (pi, args)  # the result
        built.clear()
        trace.success, trace.result, trace.word, written(trace.to_json), written(trace.to_table)
        assert built == {}, (pi, args)
        rows = len(trace.steps)
        assert rows and built == {"TraceStep": rows, "Permutation": rows}, (pi, args)


# -- u and d as masks, bit v for the value v --------------------------------


def oracle_set_cell(values):
    return "{" + ",".join(map(str, sorted(values))) + "}"


def mask_of(values):
    return sum(1 << v for v in values)


def test_masks_format_as_their_sorted_sets():
    # the table's {..} cell and the JSON's list, against the sorted-set forms
    # they replaced: every subset of 0..11, which holds the transient values
    # 1 and n of n = 11, then seeded masks across the digit widths
    def check(n, masks):
        cell, listed = sorting._set_writer(n, "{", ",", "}"), sorting._set_writer(n, "[", ", ", "]")
        for mask in masks:
            values = sorting._values(mask)
            assert mask_of(values) == mask
            assert cell(mask) == oracle_set_cell(values), mask
            assert listed(mask) == json.dumps(sorted(values)), mask

    check(11, range(1 << 12))
    rng = random.Random(20261020)
    for n in (99, 100, 101, 400):
        masks = [mask_of(rng.sample(range(1, n + 1), k)) for k in (1, 2, n // 3, n // 2, n - 2, n)]
        check(n, [*masks, 1 << n, 1 << 1 | 1 << n, (1 << n + 1) - 2])


def test_mask_and_set_round_trip():
    for n in range(1, 7):
        for values in itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), k) for k in range(n + 1)
        ):
            assert sorting._values(mask_of(values)) == frozenset(values)
        for orientation in disjoint_orientations(n):
            assert orientation.masks == (mask_of(orientation.u), mask_of(orientation.d))


# -- the trace table against the row-by-row rendering it replaced -----------


def oracle_word_cell(letters):
    return ".".join(f"s{l}" for l in letters) if letters else "e"


def oracle_pi_text(pi):
    """str(Permutation) as it was: str() of every value, joined."""
    return ("" if pi.n <= 9 else " ").join(str(v) for v in pi.entries)


def oracle_table(trace):
    """SortTrace.to_table as it was: every row's w cell formatted from scratch."""
    single = trace.kind is not None
    header = ["pi", "w", "j", "l"] if single else ["pi", "w", "u", "d", "l", "k"]
    rows = [header]
    taken = []
    for s in trace.steps:
        word_cell = oracle_word_cell(taken)
        if single:
            param = next(iter(s.u if trace.kind is Kind.UP else s.d))
            rows.append([oracle_pi_text(s.pi), word_cell, str(param), str(s.letter)])
        else:
            rows.append(
                [
                    oracle_pi_text(s.pi),
                    word_cell,
                    "{" + ",".join(str(v) for v in sorted(s.u)) + "}",
                    "{" + ",".join(str(v) for v in sorted(s.d)) + "}",
                    str(s.letter),
                    ", ".join(str(k) if ok else f"x{k}" for k, ok in s.checks) if s.checks else ".",
                ]
            )
        if s.applied:
            taken.append(s.letter)
    if trace.success:
        final_word = oracle_word_cell(list(trace.word))
        if single:
            param = next(iter(final_sets(trace)[trace.kind is Kind.DOWN]))
            rows.append([oracle_pi_text(trace.result), final_word, str(param), ""])
        else:
            rows.append([oracle_pi_text(trace.result), final_word, "", "", "", ""])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def assert_tables_match_oracle(traces):
    mismatches = [trace for trace in traces if written(trace.to_table) != oracle_table(trace)]
    assert not mismatches, mismatches[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, slow(6)])
def test_product_sort_table_matches_oracle(n):
    traces = [permutree_sort(pi, o) for o in disjoint_orientations(n) for pi in all_permutations(n)]
    if n >= 4:
        # stuck sorts end in rows that were considered and not applied
        assert any(not s.applied for trace in traces for s in trace.steps)
    assert_tables_match_oracle(traces)


def test_product_sort_table_matches_oracle_degree_6_partitions():
    n = 6
    every = [Orientation(set(), set(), n), Orientation({2, 4}, {3, 5}, n), Orientation({3, 5}, {2, 4}, n)]
    assert_tables_match_oracle(permutree_sort(pi, o) for o in every for pi in all_permutations(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_single_sort_table_matches_oracle(n):
    assert_tables_match_oracle(
        sort_single(pi, j, kind)
        for pi in all_permutations(n)
        for j in range(2, n)
        for kind in (Kind.UP, Kind.DOWN)
    )


def seeded_traces(n):
    """Six seeded permutations of S_n, each sorted under the empty, a sparse
    and a partition orientation with a shuffled priority."""
    rng = random.Random(20261018 + n)
    traces = []
    for _ in range(6):
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
        pi = Permutation(tuple(entries))
        sparse = rng.sample(range(2, n), 4)
        parity = rng.randrange(2)
        up = {j for j in range(2, n) if j % 2 == parity}
        for orientation in (
            Orientation(set(), set(), n),
            Orientation(set(sparse[:2]), set(sparse[2:]), n),
            Orientation(up, set(range(2, n)) - up, n),
        ):
            traces.append(permutree_sort(pi, orientation, PriorityOrder.shuffled(n, rng)))
    return traces


@pytest.mark.parametrize("n", [30, 60])
def test_seeded_sort_tables_match_oracle(n):
    traces = seeded_traces(n)
    assert any(trace.success for trace in traces)
    assert any(not trace.success for trace in traces)
    assert_tables_match_oracle(traces)


def test_table_word_blocks_match_oracle(monkeypatch):
    # The w cells are cut into shared blocks of the word and of blanks: small
    # blocks put prefix and padding ends on, just before and just after a
    # block boundary in every table.  Each oracle table is built once.
    product = (
        permutree_sort(pi, o)
        for n in range(1, 6)
        for o in disjoint_orientations(n)
        for pi in all_permutations(n)
    )
    single = (
        sort_single(pi, j, kind)
        for n in range(3, 6)
        for pi in all_permutations(n)
        for j in range(2, n)
        for kind in (Kind.UP, Kind.DOWN)
    )
    for trace in itertools.chain(product, single, seeded_traces(30), seeded_traces(60)):
        want = oracle_table(trace)
        for block in (1, 2, 3, 7):
            monkeypatch.setattr(sorting, "_WORD_BLOCK", block)
            assert_same_text(written(trace.to_table), want, (block, trace.start, trace.kind))


def n80_trace():
    """A random pi at n = 80 sorted to the identity: a table of over 5 MB."""
    n = 80
    entries = list(range(1, n + 1))
    random.Random(80).shuffle(entries)
    return permutree_sort(Permutation(tuple(entries)), Orientation(set(), set(), n))


def test_table_at_the_real_block_size_matches_oracle():
    # At the real block size: the first row's prefix is empty ("e"), and as
    # every row applies its letter, the rows' prefixes end at each "." of the
    # word, one of them on a block boundary, in a word of over two blocks.
    trace = n80_trace()
    table = written(trace.to_table)
    assert len(table) > 5_000_000
    assert_same_text(table, oracle_table(trace))
    assert trace.decisions and all(applied for *_, applied in trace.decisions)
    block = sorting._WORD_BLOCK
    word = ".".join(f"s{letter}" for letter in trace.word)
    assert any(word[end] == "." for end in range(block, len(word), block))
    assert len(word) > 2 * block


class Counter:
    """A stream with write alone, which keeps only the length of what it gets."""

    def __init__(self):
        self.size = 0

    def write(self, piece):
        self.size += len(piece)


def test_streamed_table_is_never_whole_in_memory():
    # Written to a stream, the table's peak is the distinct decisions' cells,
    # the word, every run of each kind (about width^2 / (2 x block)
    # characters, about 1 MB each at the n = 200 text cap) and one row's own
    # slices: not the table, and not the rows' one-line texts, which are
    # written as they are replayed.
    trace = n80_trace()
    out = Counter()
    tracemalloc.start()
    try:
        assert trace.to_table(file=out) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.size
    assert size > 5_000_000
    assert peak <= 0.03 * size, peak / size


class Writes:
    """A stream with write alone, which keeps every piece it gets."""

    def __init__(self):
        self.pieces = []

    def write(self, piece):
        self.pieces.append(piece)


def test_table_rows_are_written_in_few_pieces(monkeypatch):
    # A row is four pieces: its one-line text, one shared run of its word
    # prefix's whole blocks, its own slices, and one shared run of its blanks'
    # whole blocks; the last line's cells after w are one more.  At a block of
    # 7 the n = 80 word is hundreds of blocks long, so one piece per whole
    # block would take hundreds of writes a row.
    trace = n80_trace()
    monkeypatch.setattr(sorting, "_WORD_BLOCK", 7)
    out = Writes()
    assert trace.to_table(file=out) is None
    assert_same_text("".join(out.pieces), oracle_table(trace))
    rows = len(trace.decisions) + trace.success
    width = len(".".join(f"s{letter}" for letter in trace.word))
    assert width // 7 > 500
    assert len(out.pieces) <= 4 * rows + 1, len(out.pieces) / rows


@pytest.mark.parametrize("block", [7, sorting._WORD_BLOCK])
def test_rows_with_as_many_whole_blocks_share_one_run(monkeypatch, block):
    # A stream that keeps its pieces holds each distinct run once: every row
    # with the same count of whole blocks is given the same run object, of
    # the word's prefix and of the blanks.  A fresh slice per row would write
    # the same pieces and hold each run once per row.
    trace = n80_trace()
    monkeypatch.setattr(sorting, "_WORD_BLOCK", block)
    out = Writes()
    assert trace.to_table(file=out) is None
    rows = len(trace.decisions) + trace.success
    assert len(out.pieces) == 4 * rows + 1
    for runs in (out.pieces[1::4], out.pieces[3::4]):  # each row's word run, blank run
        shared = {}
        for run in runs:
            assert len(run) % block == 0
            assert shared.setdefault(len(run), run) is run
        assert len(shared) > 2  # rows share several distinct runs


# -- permutree_sort against the Permutation-stepping loop it replaced -------


def oracle_move_u(u, letter):
    """Advance the up-set along the letter: l in u becomes l+1."""
    if letter not in u:
        return u
    return (u - {letter}) | {letter + 1}


def oracle_move_d(d, letter):
    """Advance the down-set along the letter: l+1 in d becomes l."""
    if letter + 1 not in d:
        return d
    return (d - {letter + 1}) | {letter}


def oracle_fixes_prefix(pi, k):
    if k <= 0 or k >= pi.n:
        return True
    return max(pi.entries[:k]) == k


def oracle_permutree_sort(pi, orientation, priority=None):
    """permutree_sort as it was: left_inversions and left_multiply at every step."""
    n = pi.n
    if priority is None:
        priority = PriorityOrder.natural(n)
    rank = priority.rank.__getitem__
    u, d = orientation.u, orientation.d
    steps = []
    taken = []

    while True:
        descents = left_inversions(pi)
        if not descents:
            break
        letter = min((l for l in descents if l + 1 not in u and l not in d), key=rank, default=None)
        if letter is not None:
            steps.append(TraceStep(pi, u, d, letter, (), "healthy"))
            taken.append(letter)
            pi = left_multiply(letter, pi)
            u, d = oracle_move_u(u, letter), oracle_move_d(d, letter)
            continue
        chosen = None
        attempts = []
        for l in sorted(descents, key=rank):
            checks = []
            if l + 1 in u:
                checks.append((l + 1, oracle_fixes_prefix(pi, l + 1)))
            if l in d:
                checks.append((l - 1, oracle_fixes_prefix(pi, l - 1)))
            checks.sort()
            if all(ok for _, ok in checks):
                chosen = (l, tuple(checks))
                break
            attempts.append(TraceStep(pi, u, d, l, tuple(checks), "ill", applied=False))
        if chosen is None:
            steps.extend(attempts)
            break
        letter, checks = chosen
        steps.append(TraceStep(pi, u, d, letter, checks, "ill"))
        taken.append(letter)
        pi = left_multiply(letter, pi)
        u, d = oracle_move_u(u - {letter + 1}, letter), oracle_move_d(d - {letter}, letter)

    return OracleTrace(tuple(steps), Word(tuple(taken), n), pi, u, d)


def oracle_json(trace):
    """SortTrace.to_json as it was: str() of every value of every row."""
    payload = {
        "steps": [
            {
                "pi": oracle_pi_text(s.pi),
                "u": sorted(s.u),
                "d": sorted(s.d),
                "letter": s.letter,
                "checks": [[k, ok] for k, ok in s.checks],
                "phase": s.phase,
                "applied": s.applied,
            }
            for s in trace.steps
        ],
        "word": list(trace.word),
        "result": oracle_pi_text(trace.result),
        "success": trace.success,
    }
    return json.dumps(payload, sort_keys=True)


def assert_sort_matches_oracle(pi, orientation, priority, text=True):
    trace = permutree_sort(pi, orientation, priority)
    want = oracle_permutree_sort(pi, orientation, priority)
    assert_same_trace(trace, want, (pi, orientation, priority))
    assert_same_text(written(trace.to_json), oracle_json(want), (pi, orientation, priority))
    if text:
        assert_same_text(written(trace.to_table), oracle_table(want), (pi, orientation, priority))
    return trace


def test_text_mismatch_reports_the_first_differing_line():
    # a sort's JSON is one line of megabytes: a mismatch near its end is
    # reported at once, by line index and column, with the text around it
    want = "x" * 2_000_000 + "\nlast\n"
    got = want[:1_999_990] + "y" + want[1_999_991:]
    assert_same_text(want, want)
    with pytest.raises(AssertionError) as excinfo:
        assert_same_text(got, want, "case")
    mine, theirs = "x" * 40 + "y" + "x" * 9 + "\n", "x" * 50 + "\n"
    assert str(excinfo.value) == (
        f"case: line 0 differs at column 1999990 (got 2 lines, want 2): got {mine!r}, want {theirs!r}"
    )
    with pytest.raises(AssertionError, match=r"line 2 differs at column 0 \(got 3 lines, want 2\)"):
        assert_same_text(want + "extra\n", want)


# (n, seed): seed None is the natural priority, otherwise the seed of a
# shuffled one.  One pass over S_6 costs about 20 s, so only the natural
# priority runs there by default.
ORACLE_CASES = [
    *((n, seed) for n in range(1, 6) for seed in (None, 1, 2)),
    (6, None),
    *(slow(n, seed) for n, seed in ((6, 1), (6, 2), (7, None), (7, 1), (7, 2))),
]


@pytest.mark.parametrize("n, seed", ORACLE_CASES)
def test_product_sort_matches_oracle(n, seed):
    if seed is None:
        priority = PriorityOrder.natural(n)
    else:
        priority = PriorityOrder.shuffled(n, random.Random(20261018 + 10 * n + seed))
    for orientation in disjoint_orientations(n):
        for pi in all_permutations(n):
            assert_sort_matches_oracle(pi, orientation, priority)


@pytest.mark.parametrize("n", [50, 200])
def test_seeded_large_sorts_match_oracle(n):
    # the space-separated form, and ill rows of stuck sorts, at sizes the
    # exhaustive comparisons never reach; the n = 200 text table is 429 MB
    rng = random.Random(20261018 + n)
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    pi = Permutation(tuple(entries))
    sparse = rng.sample(range(2, n), 6)
    parity = rng.randrange(2)
    up = {j for j in range(2, n) if j % 2 == parity}
    traces = [
        assert_sort_matches_oracle(pi, orientation, PriorityOrder.shuffled(n, rng), text=n <= 50)
        for orientation in (
            Orientation(set(), set(), n),
            Orientation(set(sparse[:3]), set(sparse[3:]), n),
            Orientation(up, set(range(2, n)) - up, n),
        )
    ]
    assert [trace.success for trace in traces] == [True, False, False]
    assert any(s.phase == "ill" for trace in traces[1:] for s in trace.steps)


def minimal_by_insertion(orientation, rng):
    """A (u, d)-minimal permutation, built by inserting n, n-1, ..., 1 into
    live gaps of the values placed so far.  After v goes into gap g, the
    gaps below g stay, g splits into g and g+1 and the gaps above g shift
    up; then v in u keeps the gaps up to g+1 (a smaller value after a larger
    one that follows v would make v..k..i), v in d keeps gap 0 and the gaps
    from g+1 on (k..i..v), and an undecorated v keeps all of them."""
    placed, live = [], [0]
    for v in range(orientation.n, 0, -1):
        g = rng.choice(live)
        placed.insert(g, v)
        live = [h for h in live if h < g] + [g, g + 1] + [h + 1 for h in live if h > g]
        if v in orientation.u:
            live = [h for h in live if h <= g + 1]
        elif v in orientation.d:
            live = [h for h in live if h == 0 or h > g]
    return Permutation(tuple(placed))


def alternating_minimal(n, rng):
    """The alternating partition, of a parity the rng draws, and a minimal pi."""
    parity = rng.randrange(2)
    up = {j for j in range(2, n) if j % 2 == parity}
    orientation = Orientation(up, set(range(2, n)) - up, n)
    return orientation, minimal_by_insertion(orientation, rng)


def test_dense_trace_memory_per_row():
    # Both sets move on nearly every row, and each row keeps u and d as two
    # ints: a row's tuple and its new masks take about 200 bytes at n = 200,
    # where frozensets took about 5 KB.  The first sort fills the
    # per-degree caches, and a full collection empties the free lists, from
    # which tracemalloc would not see the rows' tuples taken.
    orientation, pi = alternating_minimal(200, random.Random(20261020 + 200))  # as the test below
    permutree_sort(pi, orientation)
    gc.collect()
    tracemalloc.start()
    try:
        trace = permutree_sort(pi, orientation)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = len(trace.decisions)
    assert trace.success and rows > 200
    moves = sum(row[:2] != before[:2] for before, row in zip(trace.decisions, trace.decisions[1:]))
    assert moves > rows / 2
    assert held <= 256 * rows, held / rows


@pytest.mark.parametrize("n, dense", [(200, True), slow(400, False), slow(400, True)])
def test_seeded_minimal_sorts_match_oracle(n, dense):
    # successful sorts at sizes the exhaustive comparisons never reach: a
    # minimal pi under the alternating partition, or a random pi under the
    # empty orientation (40,417 rows at n = 400).  The insertion is not
    # uniform and its pi is short: at n = 200 it sorts in 319 rows, 93 of
    # them ill, and the sets move after 283 of them (742, 197 and 655 at
    # n = 400).
    rng = random.Random(20261020 + n)
    if dense:
        orientation, pi = alternating_minimal(n, rng)
        assert not any(oracle_contains_pattern(pi, j, Kind.UP) for j in orientation.u)
        assert not any(oracle_contains_pattern(pi, j, Kind.DOWN) for j in orientation.d)
    else:
        orientation = Orientation(set(), set(), n)
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
        pi = Permutation(tuple(entries))
    trace = assert_sort_matches_oracle(pi, orientation, PriorityOrder.shuffled(n, rng), text=False)
    assert trace.success and len(trace.word) == pi.length()
    assert product_accepts(orientation, trace.word)


@pytest.mark.parametrize("n", [12, 16, 17, 100, 101])
def test_sorts_across_digit_widths_match_oracle(n):
    # The rendered pi swaps the strings of l and l+1, which differ in width
    # at 9|10 and 99|100; w0 under the empty orientation makes every adjacent
    # swap, and a stuck partition sort ends in unapplied rows; at n = 101 the
    # stuck sort's table (83 rows) holds 3-digit values in its pi cells.  The
    # replay keeps the strings in blocks of isqrt(n) values, which divides 12,
    # 16 and 100 and leaves one value in the last block at 17 and 101; w0's
    # swaps fall both inside one block and across two.
    w0 = Permutation(tuple(range(n, 0, -1)))
    trace = assert_sort_matches_oracle(w0, Orientation(set(), set(), n), None, text=n < 100)
    assert trace.success and len(trace.word) == n * (n - 1) // 2
    size = math.isqrt(n)
    blocks = [
        (s.pi.entries.index(s.letter) // size, s.pi.entries.index(s.letter + 1) // size)
        for s in trace.steps
        if s.applied
    ]
    assert {i == j for i, j in blocks} == {True, False}
    if n < 101:
        return
    entries = list(range(1, n + 1))
    random.Random(0).shuffle(entries)
    up = set(range(2, n, 2))
    stuck = assert_sort_matches_oracle(
        Permutation(tuple(entries)), Orientation(up, set(range(3, n, 2)), n), None
    )
    assert not stuck.success and {9, 99} <= set(stuck.word)
    assert any(s.phase == "ill" and s.applied for s in stuck.steps)
    assert any(not s.applied for s in stuck.steps)


@pytest.mark.parametrize("n, first", [(9, "987654321"), (10, "10 9 8 7 6 5 4 3 2 1")])
def test_rendered_pi_is_str_of_the_permutation(n, first):
    # digits run together up to n = 9 and are space-separated from n = 10
    trace = permutree_sort(Permutation(tuple(range(n, 0, -1))), Orientation(set(), set(), n))
    rendered = [step["pi"] for step in json.loads(written(trace.to_json))["steps"]]
    assert rendered[0] == first
    assert rendered == [str(s.pi) for s in trace.steps]
    assert rendered == [oracle_pi_text(s.pi) for s in trace.steps]
    rows = written(trace.to_table).splitlines()[2:]
    assert [row.split(" | ")[0] for row in rows] == rendered + [oracle_pi_text(trace.result)]
