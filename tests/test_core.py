import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from permutree.core import (
    Kind,
    Orientation,
    Permutation,
    PriorityOrder,
    Residual,
    Word,
    all_permutations,
    all_reduced_words,
    contains_pattern,
    is_minimal,
    iter_reduced_words,
    left_inversions,
    left_multiply,
    ninv_stats,
    minimality_witness,
    pattern_masks,
    pattern_witness,
    right_swap,
    stack_sort,
)
from permutree.automata import exists_accepted, product_accepts
from permutree.coxeter import CoxeterWord, c_factorization, c_sorting_word, is_c_sortable
from permutree.sorting import _greedy_extract, check_sorting_network, network_candidate, permutree_sort
from permutree.trees import generating_tree, lexmin_word
from oracles import (
    evaluate,
    identity,
    is_left_inversion,
    oracle_contains_pattern,
    right_multiply,
    slow,
    word_from_text,
)

P = Permutation.from_text

# The degree-6 sweeps take minutes in total; they run when PERMUTREE_SLOW is
# set and are skipped (not silently dropped) otherwise.
SLOW_DEGREE = slow(6)


# -- oracles: library functions that moved here, and the parent's two-loop scans


def inversion_set(pi):
    """All pairs (high, low) with high > low and high before low."""
    entries = pi.entries
    return frozenset(
        (entries[p], entries[q])
        for p in range(pi.n)
        for q in range(p + 1, pi.n)
        if entries[p] > entries[q]
    )


def is_aligned(pi, orientation):
    """Alignment condition on the inversion set (Pilaud-Pons, Permutrees).

    For i < j < k with j in u: (k, i) inverted implies (k, j) inverted.
    For i < j < k with j in d: (k, i) inverted implies (j, i) inverted.
    """
    inv = inversion_set(pi)
    for j in orientation.u:
        for k in range(j + 1, pi.n + 1):
            for i in range(1, j):
                if (k, i) in inv and (k, j) not in inv:
                    return False
    for j in orientation.d:
        for k in range(j + 1, pi.n + 1):
            for i in range(1, j):
                if (k, i) in inv and (j, i) not in inv:
                    return False
    return True


def is_reduced(word):
    """True iff the word has minimal length among expressions of its product."""
    return len(word) == evaluate(word).length()


def oracle_two_loop_contains_pattern(pi, j, kind):
    if not 2 <= j <= pi.n - 1:
        raise ValueError(f"j must lie in 2..{pi.n - 1}, got {j}")
    pos_j = pi.entries.index(j)
    if kind is Kind.UP:
        # after j: some value above j, then some value below j
        seen_high = False
        for val in pi.entries[pos_j + 1 :]:
            if val > j:
                seen_high = True
            elif val < j and seen_high:
                return True
        return False
    # before j: some value above j, then some value below j
    seen_high = False
    for val in pi.entries[:pos_j]:
        if val > j:
            seen_high = True
        elif val < j and seen_high:
            return True
    return False


def oracle_pattern_witness(pi, j, kind):
    if not 2 <= j <= pi.n - 1:
        raise ValueError(f"j must lie in 2..{pi.n - 1}, got {j}")
    pos_j = pi.entries.index(j) + 1
    if kind is Kind.UP:
        high_pos = None
        for pos in range(pos_j + 1, pi.n + 1):
            val = pi.value_at(pos)
            if val > j and high_pos is None:
                high_pos = pos
            elif val < j and high_pos is not None:
                return (pos_j, high_pos, pos)
        return None
    high_pos = None
    for pos in range(1, pos_j):
        val = pi.value_at(pos)
        if val > j and high_pos is None:
            high_pos = pos
        elif val < j and high_pos is not None:
            return (high_pos, pos, pos_j)
    return None


def oracle_is_minimal(pi, orientation):
    """The parent's two loops: every j of u, then every j of d."""
    return all(not contains_pattern(pi, j, Kind.UP) for j in orientation.u) and all(
        not contains_pattern(pi, j, Kind.DOWN) for j in orientation.d
    )


def oracle_components(orientation):
    """The component order as the automata module used to build it."""
    return [(Kind.UP, j) for j in sorted(orientation.u)] + [
        (Kind.DOWN, j) for j in sorted(orientation.d)
    ]


def brute_contains(pi, j, kind):
    # cubic scan straight off the definition, used as the oracle
    n = pi.n
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            for r in range(q + 1, n + 1):
                a, b, c = pi.value_at(p), pi.value_at(q), pi.value_at(r)
                if kind is Kind.UP and a == j and b > j and c < j:
                    return True
                if kind is Kind.DOWN and a > j and b < j and c == j:
                    return True
    return False


def test_identity():
    assert identity(1).entries == (1,)
    assert str(identity(4)) == "1234"
    assert identity(5).length() == 0
    with pytest.raises(ValueError):
        identity(0)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 2, 2, 4))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation.from_text("12344")


def test_text_round_trip():
    assert str(P("3 4 2 1")) == "3421"
    big = Permutation(tuple(range(1, 12)))
    assert Permutation.from_text(str(big)) == big


def test_left_multiply_swaps_values():
    assert str(left_multiply(4, P("142536"))) == "152436"
    assert str(left_multiply(4, P("142563"))) == "152463"
    assert str(left_multiply(1, identity(3))) == "213"
    with pytest.raises(ValueError):
        left_multiply(6, P("142536"))


def test_right_multiply_swaps_positions():
    assert str(right_multiply(identity(4), 2)) == "1324"
    assert str(right_multiply(P("1324"), 1)) == "3124"
    assert str(right_multiply(P("4321"), 3)) == "4312"
    with pytest.raises(ValueError):
        right_multiply(identity(4), 0)


def test_right_swap_is_right_multiply_on_entries():
    # every pi of S_n, n <= 6, and every letter: the package's one body of
    # pi * s_l on one-line entries, against the oracle on Permutations
    for n in range(2, 7):
        for pi in all_permutations(n):
            for l in range(1, n):
                assert right_swap(pi.entries, l) == right_multiply(pi, l).entries, (pi, l)


def test_inversion_set():
    assert inversion_set(identity(4)) == frozenset()
    assert inversion_set(P("4321")) == frozenset(
        {(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}
    )
    assert inversion_set(P("32145")) == frozenset({(3, 1), (3, 2), (2, 1)})


def test_is_left_inversion():
    assert not is_left_inversion(P("413265"), 4)
    assert is_left_inversion(P("3421"), 2)
    assert not is_left_inversion(identity(5), 3)
    with pytest.raises(ValueError):
        is_left_inversion(identity(5), 5)


def test_pattern_examples():
    pi = P("42135")
    for j in (2, 3, 4):
        assert not contains_pattern(pi, j, Kind.UP)
    assert contains_pattern(pi, 3, Kind.DOWN)
    for j in (2, 3, 4):
        assert not contains_pattern(identity(5), j, Kind.UP)
        assert not contains_pattern(identity(5), j, Kind.DOWN)
    with pytest.raises(ValueError):
        contains_pattern(pi, 1, Kind.UP)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pattern_scan_matches_cubic_oracle(n):
    for pi in all_permutations(n):
        for j in range(2, n):
            for kind in (Kind.UP, Kind.DOWN):
                assert contains_pattern(pi, j, kind) == brute_contains(pi, j, kind)


def test_pattern_witness_positions():
    assert pattern_witness(P("42135"), 3, Kind.DOWN) == (1, 2, 4)
    assert pattern_witness(P("42135"), 2, Kind.UP) is None
    for pi in all_permutations(4):
        for j in (2, 3):
            for kind in (Kind.UP, Kind.DOWN):
                witness = pattern_witness(pi, j, kind)
                assert (witness is not None) == contains_pattern(pi, j, kind)
                if witness:
                    p, q, r = witness
                    assert p < q < r
                    values = [pi.value_at(x) for x in witness]
                    if kind is Kind.UP:
                        assert values[0] == j and values[1] > j and values[2] < j
                    else:
                        assert values[0] > j and values[1] < j and values[2] == j


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_folded_scans_match_the_two_loop_oracles(n):
    for pi in all_permutations(n):
        for j in range(2, n):
            for kind in (Kind.UP, Kind.DOWN):
                want = oracle_two_loop_contains_pattern(pi, j, kind)
                assert contains_pattern(pi, j, kind) == want
                assert pattern_witness(pi, j, kind) == oracle_pattern_witness(pi, j, kind)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_contains_pattern_and_witness_match_the_own_scan_oracle(n):
    # contains_pattern reads a bit of pattern_masks, so the masks, the
    # witness and contains_pattern are all checked against the scan
    # contains_pattern used to run itself; the masks hold no other bit
    for pi in all_permutations(n):
        masks = pattern_masks(pi)
        found = [0, 0]
        for j in range(2, n):
            for kind in (Kind.UP, Kind.DOWN):
                witness = pattern_witness(pi, j, kind)
                want = oracle_contains_pattern(pi, j, kind)
                assert contains_pattern(pi, j, kind) == want == (witness is not None)
                found[kind is Kind.DOWN] |= want << j
                if witness is not None:
                    assert witness[0] < witness[1] < witness[2]
                    values = [pi.value_at(p) for p in witness]
                    # jki for UP, kij for DOWN
                    middle, k, i = values if kind is Kind.UP else (values[2], *values[:2])
                    assert middle == j and i < j < k
        assert masks == tuple(found), pi


def test_is_aligned():
    assert is_aligned(identity(4), Orientation({2, 3}, frozenset(), 4))
    assert not is_aligned(P("4231"), Orientation({2}, frozenset(), 4))
    assert is_aligned(P("3421"), Orientation({2}, frozenset(), 4))


def disjoint_orientations(n):
    values = range(2, n)
    for assign in itertools.product((0, 1, 2), repeat=len(values)):
        u = frozenset(j for j, a in zip(values, assign) if a == 1)
        d = frozenset(j for j, a in zip(values, assign) if a == 2)
        yield Orientation(u, d, n)


@pytest.mark.parametrize("n", [3, 4, 5, SLOW_DEGREE])
def test_alignment_equivalent_to_avoidance(n):
    # the alignment reading of minimality agrees with the subword reading,
    # over every disjoint orientation
    for pi in all_permutations(n):
        for o in disjoint_orientations(n):
            assert is_aligned(pi, o) == oracle_is_minimal(pi, o)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=SLOW_DEGREE.marks)])
def test_is_minimal_matches_the_two_loop_oracle(n):
    # every orientation; every bit of the masks, overlapping pairs' too, is
    # checked against the scan by the pattern-mask test above
    orientations = list(disjoint_orientations(n))
    for o in orientations:
        assert o.components == tuple(oracle_components(o))
    for pi in all_permutations(n):
        for o in orientations:
            assert is_minimal(pi, o) == oracle_is_minimal(pi, o), (pi, o)


def test_ninv_stats():
    assert ninv_stats(P("4321"), 2) == (1, 2)
    assert ninv_stats(P("4312"), 2) == (0, 2)
    assert ninv_stats(identity(6), 3) == (0, 0)
    with pytest.raises(ValueError):
        ninv_stats(P("4321"), 5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ninv_above_sums_to_length(n):
    for pi in all_permutations(n):
        assert sum(ninv_stats(pi, j)[0] for j in range(1, n + 1)) == pi.length()


def test_evaluate():
    assert str(evaluate(Word((3, 5, 2, 1, 3), 6))) == "413265"
    assert str(evaluate(Word((3, 2, 3), 6))) == "143256"
    assert evaluate(Word((), 4)) == identity(4)


@pytest.mark.parametrize("n, max_length", [(1, 0), (2, 4), (3, 6), (4, 6), (5, 4)])
def test_evaluate_matches_a_fold_of_right_multiply(n, max_length):
    # every word up to the length, reduced or not
    for length in range(max_length + 1):
        for letters in itertools.product(range(1, n), repeat=length):
            pi = identity(n)
            for letter in letters:
                pi = right_multiply(pi, letter)
            assert evaluate(Word(letters, n)) == pi, letters


def test_word_validation():
    with pytest.raises(ValueError):
        Word((4,), 4)
    with pytest.raises(ValueError):
        Word((0,), 4)
    assert word_from_text("2,1,3", 4).letters == (2, 1, 3)
    assert word_from_text("", 4).letters == ()
    with pytest.raises(ValueError, match=r"^letter 0 out of range 1\.\.3$"):
        Word((2, 0, 9), 4)
    with pytest.raises(ValueError, match=r"^letter 9 out of range 1\.\.3$"):
        Word((2, 9, 0), 4)
    # the first letter out of range is the one named, as a scan in order names it
    for n in range(1, 5):
        for length in range(4):
            for letters in itertools.product(range(-1, n + 2), repeat=length):
                bad = [letter for letter in letters if not 1 <= letter <= n - 1]
                if not bad:
                    assert Word(letters, n).letters == letters
                    continue
                with pytest.raises(ValueError) as excinfo:
                    Word(letters, n)
                assert str(excinfo.value) == f"letter {bad[0]} out of range 1..{n - 1}", letters


def test_permutation_validation_matches_the_sorted_range_test():
    # every tuple over {0..n+1}^n is refused exactly when its sorted entries
    # are not 1..n, with the same message
    for n in range(6):
        for entries in itertools.product(range(n + 2), repeat=n):
            if n < 1 or sorted(entries) != list(range(1, n + 1)):
                with pytest.raises(ValueError) as excinfo:
                    Permutation(entries)
                assert str(excinfo.value) == f"not a permutation of 1..{n}: {entries!r}"
            else:
                assert Permutation(entries).entries == entries


def test_is_identity_matches_the_fixed_point_test():
    for n in range(1, 8):
        for pi in all_permutations(n):
            assert pi.is_identity() == all(v == i for i, v in enumerate(pi.entries, start=1)), pi


def test_is_reduced():
    assert not is_reduced(Word((1, 1), 4))
    assert is_reduced(Word((3, 5, 2, 1, 3), 6))
    assert is_reduced(Word((2, 1, 3, 2, 3), 4))


def test_reduced_word_counts():
    assert len(all_reduced_words(P("4321"))) == 16
    assert len(all_reduced_words(P("4312"))) == 5
    assert all_reduced_words(identity(3)) == frozenset({Word((), 3)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_words_against_exhaustive_search(n):
    # oracle: filter every word of the right length over the full alphabet
    for pi in all_permutations(n):
        k = pi.length()
        brute = {
            Word(seq, n)
            for seq in itertools.product(range(1, n), repeat=k)
            if evaluate(Word(seq, n)) == pi
        }
        assert all_reduced_words(pi) == brute


@pytest.mark.parametrize("n", [2, 3, 4, 5, SLOW_DEGREE])
def test_reduced_words_evaluate_and_are_reduced(n):
    for pi in all_permutations(n):
        words = all_reduced_words(pi)
        assert len(words) >= 1
        for word in words:
            assert len(word) == pi.length()
            assert evaluate(word) == pi
            assert is_reduced(word)
        assert len(inversion_set(pi)) == pi.length()


def test_iter_matches_set():
    pi = P("45312")
    assert frozenset(iter_reduced_words(pi)) == all_reduced_words(pi)


def test_stack_sort():
    assert str(stack_sort(P("132"))) == "123"
    assert str(stack_sort(P("231"))) == "213"
    assert stack_sort(identity(5)) == identity(5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_stack_sortable_iff_avoids_all_up_subwords(n):
    for pi in all_permutations(n):
        avoid = all(not contains_pattern(pi, j, Kind.UP) for j in range(2, n))
        assert (stack_sort(pi) == identity(n)) == avoid


def test_orientation_validation():
    with pytest.raises(ValueError):
        Orientation({1}, frozenset(), 4)
    with pytest.raises(ValueError):
        Orientation(frozenset(), {4}, 4)
    with pytest.raises(ValueError, match=r"^u and d must be disjoint, both contain \[2\]$"):
        Orientation({2}, {2}, 4)
    with pytest.raises(ValueError, match=r"both contain \[2, 4\]$"):
        Orientation({2, 3, 4}, {2, 4}, 6)
    Orientation(frozenset(), frozenset(), 2)  # the n=2 constraint set is empty


def test_orientation_range_messages():
    cases = [
        (({1}, frozenset(), 5), "u must be a subset of {2,..,4}, got [1]"),
        ((frozenset(), {0, 2}, 3), "d must be a subset of {2}, got [0, 2]"),
        (({2}, frozenset(), 2), "u must be a subset of {}, got [2]"),
        (({2.5}, frozenset(), 5), "u must be a subset of {2,..,4}, got [2.5]"),
        (({"2"}, frozenset(), 5), "u must be a subset of {2,..,4}, got ['2']"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as caught:
            Orientation(*args)
        assert str(caught.value) == message


def test_orientation_check_does_not_hold_its_range():
    # the check asks each value's range; a set of 2..n-1 would take hundreds of MB
    tracemalloc.start()
    try:
        orientation = Orientation({2}, frozenset(), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orientation.masks == (4, 0)
    assert peak < 2**20


def test_orientation_components_are_derived():
    o = Orientation({4, 2}, {5, 3}, 6)
    assert o.components == ((Kind.UP, 2), (Kind.UP, 4), (Kind.DOWN, 3), (Kind.DOWN, 5))
    # equality, hash and repr read u, d and n only
    same = Orientation(frozenset({2, 4}), frozenset({3, 5}), 6)
    assert o == same and hash(o) == hash(same)
    assert repr(o) == "Orientation(u=frozenset({2, 4}), d=frozenset({3, 5}), n=6)"
    with pytest.raises(TypeError):
        Orientation({2}, frozenset(), 4, components=())


@given(st.permutations(list(range(1, 8))))
def test_left_multiply_changes_length_by_one(entries):
    pi = Permutation(tuple(entries))
    for letter in range(1, pi.n):
        changed = left_multiply(letter, pi)
        delta = changed.length() - pi.length()
        assert delta == (-1 if is_left_inversion(pi, letter) else 1)
    assert set(left_inversions(pi)) == {
        l for l in range(1, pi.n) if is_left_inversion(pi, l)
    }


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=12))
def test_evaluate_is_a_group_word(letters):
    word = Word(tuple(letters), 7)
    pi = evaluate(word)
    assert sorted(pi.entries) == list(range(1, 8))
    assert pi.length() <= len(letters)
    assert is_reduced(word) == (pi.length() == len(letters))


def assert_fixes_prefix_by_definition(rest):
    # [k] is clamped to 0..n, so k <= 0 and k >= n hold vacuously
    entries = rest.entries
    for k in range(-2, len(entries) + 3):
        m = min(max(k, 0), len(entries))
        assert rest.fixes_prefix(k) == (set(entries[:m]) == set(range(1, m + 1))), (entries, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_residual_sorts_every_permutation_one_descent_at_a_time(n):
    # each take keeps entries, pos and descents equal to those of a Residual
    # built afresh from the new entries, keeps descents the mask with bit r
    # set iff the r-th letter of the order is a left inversion, and shortens
    # the permutation by one; under the natural priority and a shuffled one
    shuffled = list(range(1, n))
    random.Random(20261020 + n).shuffle(shuffled)
    for priority in (PriorityOrder.natural(n), PriorityOrder(tuple(shuffled))):
        ranked = priority.order

        def rank_bits(p):
            inversions = set(left_inversions(p))
            return sum(1 << r for r, letter in enumerate(ranked) if letter in inversions)

        for pi in all_permutations(n):
            rest = Residual(pi, priority)
            assert rest.descents == rank_bits(pi)
            assert_fixes_prefix_by_definition(rest)
            for _ in range(pi.length()):
                lowest = rest.descents & -rest.descents
                rest.take(ranked[lowest.bit_length() - 1])
                now = Permutation(tuple(rest.entries))
                fresh = Residual(now, priority)
                assert (rest.entries, rest.pos, rest.descents) == (fresh.entries, fresh.pos, fresh.descents)
                assert rest.descents == rank_bits(now), (pi, priority)
                assert_fixes_prefix_by_definition(rest)
            assert rest.entries == list(range(1, n + 1)) and not rest.descents, pi
        # every Residual of one priority reads that priority's immutable bit table
        w0 = Permutation(tuple(range(n, 0, -1)))
        first, last = Residual(identity(n), priority), Residual(w0, priority)
        assert type(first.bit) is tuple and first.bit is last.bit is priority.bit
    # and one built without a priority reads the natural priority's table
    assert Residual(identity(n)).bit is PriorityOrder.natural(n).bit
    # it keeps the priority it resolved: the natural one itself when given none
    kept = (Residual(identity(n)).priority, Residual(identity(n), priority).priority)
    assert kept[0] is PriorityOrder.natural(n) and kept[1] is priority



# (entry point, arguments, the refusal): one case per library route that
# takes inputs of two degrees, each refused through core.require_same_degree,
# with a second degree or the identity beside 4321 where a route once
# answered one of them and not the other
EMPTY_3 = Orientation(set(), set(), 3)
C_3 = CoxeterWord(Word((2, 1), 3))
DEGREE_REFUSALS = [
    # an orientation
    (permutree_sort, (P("4321"), Orientation({3}, {4}, 5)),
     "orientation of degree 5 for a permutation of degree 4"),
    (product_accepts, (Orientation({2}, set(), 3), Word((3, 2, 1), 4)),
     "orientation of degree 3 for a word of degree 4"),
    (exists_accepted, (P("4321"), Orientation({4}, set(), 5)),
     "orientation of degree 5 for a permutation of degree 4"),
    (exists_accepted, (P("1234"), Orientation({4}, set(), 5)),
     "orientation of degree 5 for a permutation of degree 4"),
    (lexmin_word, (P("4321"), Orientation({2}, set(), 3)),
     "orientation of degree 3 for a permutation of degree 4"),
    (lexmin_word, (P("1234"), Orientation({2}, set(), 3)),
     "orientation of degree 3 for a permutation of degree 4"),
    (minimality_witness, (P("4321"), Orientation({4}, set(), 5)),
     "orientation of degree 5 for a permutation of degree 4"),
    (minimality_witness, (P("4321"), Orientation({2}, set(), 3)),
     "orientation of degree 3 for a permutation of degree 4"),
    (is_minimal, (P("4321"), Orientation({4}, set(), 5)),
     "orientation of degree 5 for a permutation of degree 4"),
    (is_minimal, (P("4321"), Orientation({2}, set(), 3)),
     "orientation of degree 3 for a permutation of degree 4"),
    # a priority
    (permutree_sort, (P("321"), EMPTY_3, PriorityOrder((1,))),
     "priority of degree 2 for a permutation of degree 3"),
    (permutree_sort, (P("321"), EMPTY_3, PriorityOrder((1, 2, 3))),
     "priority of degree 4 for a permutation of degree 3"),
    (lexmin_word, (P("321"), EMPTY_3, PriorityOrder((1, 2, 3))),
     "priority of degree 4 for a permutation of degree 3"),
    (lexmin_word, (P("321"), EMPTY_3, PriorityOrder((1,))),
     "priority of degree 2 for a permutation of degree 3"),
    (lexmin_word, (P("123"), EMPTY_3, PriorityOrder((1, 2, 3))),
     "priority of degree 4 for a permutation of degree 3"),
    (lexmin_word, (P("123"), EMPTY_3, PriorityOrder((1,))),
     "priority of degree 2 for a permutation of degree 3"),
    (generating_tree, (EMPTY_3, PriorityOrder((1, 2, 3))),
     "priority of degree 4 for an orientation of degree 3"),
    (generating_tree, (EMPTY_3, PriorityOrder((1,))),
     "priority of degree 2 for an orientation of degree 3"),
    # an extension
    (network_candidate, (Kind.UP, 2, 4, Word((1,), 3)),
     "extension of degree 3 for a template of degree 4"),
    # a template
    (c_sorting_word, (P("4213"), C_3),
     "template of degree 3 for a permutation of degree 4"),
    (check_sorting_network, (Word((2, 1), 3), Orientation({2}, set(), 4)),
     "template of degree 3 for an orientation of degree 4"),
    (c_factorization, (P("4213"), C_3),
     "template of degree 3 for a permutation of degree 4"),
    (is_c_sortable, (P("4213"), C_3),
     "template of degree 3 for a permutation of degree 4"),
    (_greedy_extract, (P("4213"), Word((2, 1), 3)),
     "template of degree 3 for a permutation of degree 4"),
]


@pytest.mark.parametrize(
    "entry, args, message",
    DEGREE_REFUSALS,
    ids=[f"{entry.__name__}-{message.split()[0]}" for entry, _, message in DEGREE_REFUSALS],
)
def test_an_input_of_another_degree_is_refused_before_a_permutation_is_built(
    entry, args, message, monkeypatch
):
    # the arguments are built at collection; the refusal comes first, so
    # check_sorting_network, for one, never starts on S_n
    def refuse_to_build(self):
        raise AssertionError(f"built {self.entries} before refusing")

    monkeypatch.setattr(Permutation, "__post_init__", refuse_to_build)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(*args)
