import functools
import os
from dataclasses import dataclass

import pytest

from permutree.core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_permutations,
    all_reduced_words,
    contains_pattern,
    evaluate,
    left_multiply,
)
from permutree.automata import (
    Status,
    accepts,
    classify,
    exists_accepted,
    expected_final_column,
    export_dot,
    export_dot_product,
    initial_product,
    initial_state,
    label,
    product_accepts,
    product_table,
    run,
    state_count,
    step,
    step_product,
    table,
)

P = Permutation.from_text

SLOW_DEGREE = pytest.param(
    6, marks=pytest.mark.skipif(not os.environ.get("PERMUTREE_SLOW"), reason="set PERMUTREE_SLOW=1")
)


def exists_accepted_single(pi, kind, j):
    """Brute force: does some reduced expression of pi pass the one automaton (kind, j)?

    Unlike an Orientation, j may take the boundary values 1 and n.
    """
    return any(accepts(kind, j, pi.n, word) for word in all_reduced_words(pi))


# -- oracle: the dataclass automaton the integer tables replaced ---------------


@dataclass(frozen=True)
class OracleState:
    """Position inside one UP or DOWN automaton.

    j0 is the defining parameter of the automaton, param the current column.
    """

    kind: Kind
    param: int
    status: Status
    j0: int
    n: int

    def __post_init__(self):
        lo, hi = (self.j0, self.n) if self.kind is Kind.UP else (1, self.j0)
        if not lo <= self.param <= hi:
            raise ValueError(f"param {self.param} outside [{lo}, {hi}]")
        at_boundary = self.param == (self.n if self.kind is Kind.UP else 1)
        if self.status is Status.DEAD and at_boundary:
            raise ValueError("the boundary column has no dead state")


def oracle_step(state, letter):
    kind, m, status = state.kind, state.param, state.status
    if status is Status.DEAD:
        return state
    if kind is Kind.UP:
        if status is Status.HEALTHY:
            if letter == m - 1:
                return OracleState(kind, m, Status.ILL, state.j0, state.n)
            if letter == m and m < state.n:
                return OracleState(kind, m + 1, Status.HEALTHY, state.j0, state.n)
        elif letter == m and m < state.n:
            return OracleState(kind, m, Status.DEAD, state.j0, state.n)
        return state
    if status is Status.HEALTHY:
        if letter == m:
            return OracleState(kind, m, Status.ILL, state.j0, state.n)
        if letter == m - 1 and m > 1:
            return OracleState(kind, m - 1, Status.HEALTHY, state.j0, state.n)
    elif letter == m - 1 and m > 1:
        return OracleState(kind, m, Status.DEAD, state.j0, state.n)
    return state


def oracle_states(kind, j, n):
    """Column by column away from j, healthy, ill, dead; no dead boundary state."""
    columns = range(j, n + 1) if kind is Kind.UP else range(j, 0, -1)
    boundary = n if kind is Kind.UP else 1
    return [
        OracleState(kind, m, status, j, n)
        for m in columns
        for status in Status
        if not (m == boundary and status is Status.DEAD)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_table_matches_oracle(n):
    for kind in (Kind.UP, Kind.DOWN):
        boundary = n if kind is Kind.UP else 1
        for j in range(1, n + 1):
            delta = table(kind, j, n)
            size = state_count(kind, j, n)
            # codes 0..size-1 are the oracle's states in its order
            states = [OracleState(kind, *label(kind, j, code), j, n) for code in range(size)]
            assert states == oracle_states(kind, j, n)
            assert states[initial_state(kind, j, n)] == OracleState(kind, j, Status.HEALTHY, j, n)
            assert len(delta) == n and delta[0] == ()
            for code, state in enumerate(states):
                for letter in range(1, n):
                    target = step(delta, code, letter)
                    assert 0 <= target < size
                    assert label(kind, j, target) != (boundary, Status.DEAD)
                    assert states[target] == oracle_step(state, letter)
                    if state.status is Status.DEAD:
                        assert target == code


# -- the single automaton -------------------------------------------------------


def test_initial_state():
    s = initial_state(Kind.UP, 2, 4)
    assert label(Kind.UP, 2, s) == (2, Status.HEALTHY)
    assert label(Kind.DOWN, 4, initial_state(Kind.DOWN, 4, 5)) == (4, Status.HEALTHY)
    assert accepts(Kind.UP, 4, 4, Word((), 4))
    with pytest.raises(ValueError):
        initial_state(Kind.UP, 5, 4)
    with pytest.raises(ValueError):
        table(Kind.DOWN, 0, 4)


def test_step_up():
    delta = table(Kind.UP, 4, 6)
    h4 = initial_state(Kind.UP, 4, 6)
    ill = step(delta, h4, 3)
    assert label(Kind.UP, 4, ill) == (4, Status.ILL)
    assert label(Kind.UP, 4, step(delta, h4, 4)) == (5, Status.HEALTHY)
    assert step(delta, h4, 1) == h4
    assert step(delta, ill, 1) == ill
    dead = step(delta, ill, 4)
    assert label(Kind.UP, 4, dead) == (4, Status.DEAD)
    assert step(delta, dead, 3) == dead


def test_step_down():
    delta = table(Kind.DOWN, 4, 6)
    h = initial_state(Kind.DOWN, 4, 6)
    ill = step(delta, h, 4)
    assert label(Kind.DOWN, 4, ill) == (4, Status.ILL)
    assert label(Kind.DOWN, 4, step(delta, h, 3)) == (3, Status.HEALTHY)
    assert step(delta, h, 2) == h
    assert label(Kind.DOWN, 4, step(delta, ill, 3)) == (4, Status.DEAD)


def test_boundary_automata_accept_everything():
    # advancing and dying transitions are deleted at the boundary column
    for word in all_reduced_words(P("4321")):
        assert accepts(Kind.UP, 4, 4, word)
        assert accepts(Kind.DOWN, 1, 4, word)


def test_run_examples():
    assert label(Kind.UP, 4, run(Kind.UP, 4, 6, Word((3, 5, 2, 1, 3), 6))) == (4, Status.ILL)
    for j, n in [(2, 4), (3, 5), (4, 5)]:
        assert not accepts(Kind.UP, j, n, Word((j - 1, j, j - 1), n))
        assert accepts(Kind.UP, j, n, Word((j, j - 1, j), n))
    assert run(Kind.UP, 2, 4, Word((), 4)) == initial_state(Kind.UP, 2, 4)


# -- the product ------------------------------------------------------------------


def test_classify():
    o = Orientation({2}, {3}, 5)
    rows = product_table(o)
    start = initial_product(o)
    assert classify(start) is Status.HEALTHY
    assert o.components == ((Kind.UP, 2), (Kind.DOWN, 3))
    assert label(Kind.UP, 2, start[0]) == (2, Status.HEALTHY)
    ill_one = step_product(rows, start, 1)  # s1 makes the up component at 2 ill
    assert classify(ill_one) is Status.ILL
    dead = step_product(rows, ill_one, 2)
    assert classify(dead) is Status.DEAD
    # dead absorbs regardless of what the other component does
    assert classify(step_product(rows, dead, 3)) is Status.DEAD


def test_run_product_conflicting_sides():
    for j, n in [(2, 4), (3, 5)]:
        o = Orientation({j}, {j}, n)
        assert not product_accepts(o, Word((j - 1, j, j - 1), n))
        assert not product_accepts(o, Word((j, j - 1, j), n))
        # each side alone accepts one of the two expressions
        assert accepts(Kind.DOWN, j, n, Word((j - 1, j, j - 1), n))
        assert accepts(Kind.UP, j, n, Word((j, j - 1, j), n))


def test_empty_product_accepts_everything():
    o = Orientation(frozenset(), frozenset(), 4)
    advance = functools.partial(step_product, product_table(o))
    for word in all_reduced_words(P("4231")):
        assert classify(functools.reduce(advance, word, initial_product(o))) is Status.HEALTHY


def test_exists_accepted():
    assert exists_accepted(P("3421"), Orientation({2}, frozenset(), 4))
    assert not exists_accepted(P("4231"), Orientation({2}, frozenset(), 4))
    # overlapping sides: no reduced expression satisfies both automata
    pi = evaluate(Word((1, 2, 1), 4))
    assert not exists_accepted(pi, Orientation({2}, {2}, 4))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_acceptance_matches_avoidance(n):
    for pi in all_permutations(n):
        for j in range(2, n):
            for kind in (Kind.UP, Kind.DOWN):
                assert exists_accepted_single(pi, kind, j) == (
                    not contains_pattern(pi, j, kind)
                )


@pytest.mark.parametrize("n", [2, 3, 4, 5, SLOW_DEGREE])
def test_search_on_one_automaton_matches_brute_force(n):
    # exists_accepted on a one-value orientation is the single automaton's question
    singles = [(Orientation({j}, (), n), Kind.UP, j) for j in range(2, n)] + [
        (Orientation((), {j}, n), Kind.DOWN, j) for j in range(2, n)
    ]
    for pi in all_permutations(n):
        for orientation, kind, j in singles:
            assert orientation.components == ((kind, j),)
            got = exists_accepted(pi, orientation)
            assert got == exists_accepted_single(pi, kind, j), (pi, kind, j)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_unique_final_state_and_column(n):
    for pi in all_permutations(n):
        words = all_reduced_words(pi)
        for j in range(2, n):
            for kind in (Kind.UP, Kind.DOWN):
                finals = {label(kind, j, run(kind, j, n, w)) for w in words}
                accepted = {s for s in finals if s[1] is not Status.DEAD}
                assert len(accepted) <= 1
                for column, _ in accepted:
                    assert column == expected_final_column(pi, kind, j)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dead_is_absorbing_along_runs(n):
    for pi in all_permutations(n):
        for orientation in [
            Orientation({2}, frozenset(), n),
            Orientation({2}, {n - 1} if n > 3 else frozenset(), n),
        ]:
            rows = product_table(orientation)
            for word in all_reduced_words(pi):
                product = initial_product(orientation)
                seen_dead = False
                for letter in word:
                    product = step_product(rows, product, letter)
                    if classify(product) is Status.DEAD:
                        seen_dead = True
                    elif seen_dead:
                        pytest.fail("product recovered from a dead state")


def sigma_candidates(n, j):
    # permutations fixing [j-1], {j}, and the rest setwise
    for pi in all_permutations(n):
        if pi.value_at(j) != j:
            continue
        if set(pi.entries[: j - 1]) == set(range(1, j)):
            yield pi


@pytest.mark.parametrize("n", [4, 5])
def test_prepending_a_block_permutation_changes_nothing(n):
    for j in range(2, n):
        for sigma in sigma_candidates(n, j):
            for tau in all_permutations(n):
                product = compose(sigma, tau)
                if product.length() != sigma.length() + tau.length():
                    continue
                assert exists_accepted_single(tau, Kind.UP, j) == exists_accepted_single(
                    product, Kind.UP, j
                )
                assert contains_pattern(tau, j, Kind.UP) == contains_pattern(
                    product, j, Kind.UP
                )


def compose(sigma, tau):
    # sigma after tau, matching left-multiplication conventions
    return Permutation(tuple(sigma.value_at(tau.value_at(i)) for i in range(1, tau.n + 1)))


@pytest.mark.parametrize("n", [4, 5])
def test_left_multiplication_shifts_the_parameter(n):
    for j in range(2, n):
        for tau in all_permutations(n):
            if tau.entries.index(j + 1) < tau.entries.index(j):
                continue  # tau must not invert (j, j+1)
            lifted = left_multiply(j, tau)
            assert exists_accepted_single(lifted, Kind.UP, j) == exists_accepted_single(
                tau, Kind.UP, j + 1
            )


def test_export_dot_counts():
    dot = export_dot(Kind.UP, 3, 4)
    assert dot.count("doublecircle") == 4
    assert dot.count("[shape=circle]") == 1  # only the non-boundary dead state
    assert dot == export_dot(Kind.UP, 3, 4)
    boundary = export_dot(Kind.UP, 4, 4)
    assert boundary.count("doublecircle") == 2
    assert "circle]" not in boundary.replace("doublecircle", "")


def test_export_dot_product_grid():
    o = Orientation({4}, {2}, 5)
    dot = export_dot_product(o, reachable_only=False)
    assert dot.count("shape=") == 25 + 1  # 5x5 grid plus the start marker
    assert dot == export_dot_product(o, reachable_only=False)
    reachable = export_dot_product(o, reachable_only=True)
    assert reachable.count("shape=") <= dot.count("shape=")


def test_export_dot_is_deterministic_across_runs():
    first = export_dot(Kind.DOWN, 3, 6)
    assert first == export_dot(Kind.DOWN, 3, 6)


def test_export_dot_golden_files():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    assert export_dot(Kind.UP, 3, 4) == (golden / "automaton_u3_n4.dot").read_text()
    got = export_dot_product(Orientation({4}, {2}, 5), reachable_only=False)
    assert got == (golden / "product_u4_d2_n5.dot").read_text()
