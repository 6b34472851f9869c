"""
The recursive automata on reduced words, their lazy intersection, and the
oracles comparing automaton acceptance with subword avoidance.

An UP automaton with parameter j reads letters left to right.  Its states
form columns indexed by a moving parameter m with j <= m <= n, three rows
per column: healthy (top), ill (middle), dead (bottom).  From healthy at m
the letter m-1 falls ill at m and the letter m advances to healthy at m+1;
from ill at m the letter m dies; every other letter loops.  The induction
stops at m = n where the advancing and dying transitions are deleted, so
the final column has no reachable dead state and accepts everything.  The
DOWN automaton is the mirror image: parameters run from j down to 1, the
letter m falls ill, the letter m-1 advances downwards or kills.

A word is accepted iff its final state is healthy or ill.  The product of
several automata is executed lazily as a tuple of component states and is
never materialized as a table.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_reduced_words,
    is_minimal,
    ninv_stats,
    walk_reduced_words,
)


class Status(Enum):
    HEALTHY = "healthy"
    ILL = "ill"
    DEAD = "dead"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AutomatonState:
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

    @property
    def accepting(self) -> bool:
        return self.status is not Status.DEAD


def initial_state(kind: Kind, j: int, n: int) -> AutomatonState:
    """Healthy start state; j = n (UP) and j = 1 (DOWN) are the accept-all boundaries."""
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in 1..{n}, got {j}")
    return AutomatonState(kind, j, Status.HEALTHY, j, n)


def step(state: AutomatonState, letter: int) -> AutomatonState:
    """One transition; any letter not drawn in the diagram loops."""
    if not 1 <= letter <= state.n - 1:
        raise ValueError(f"letter {letter} out of range 1..{state.n - 1}")
    kind, m, status = state.kind, state.param, state.status
    if status is Status.DEAD:
        return state
    if kind is Kind.UP:
        if status is Status.HEALTHY:
            if letter == m - 1:
                return AutomatonState(kind, m, Status.ILL, state.j0, state.n)
            if letter == m and m < state.n:
                return AutomatonState(kind, m + 1, Status.HEALTHY, state.j0, state.n)
        elif letter == m and m < state.n:
            return AutomatonState(kind, m, Status.DEAD, state.j0, state.n)
        return state
    if status is Status.HEALTHY:
        if letter == m:
            return AutomatonState(kind, m, Status.ILL, state.j0, state.n)
        if letter == m - 1 and m > 1:
            return AutomatonState(kind, m - 1, Status.HEALTHY, state.j0, state.n)
    elif letter == m - 1 and m > 1:
        return AutomatonState(kind, m, Status.DEAD, state.j0, state.n)
    return state


def run(kind: Kind, j: int, n: int, word: Word) -> AutomatonState:
    """Fold step over the word from the start state.

    The machine is a plain DFA: it reads any word, reduced or not;
    reducedness is the caller's concern.
    """
    state = initial_state(kind, j, n)
    for letter in word:
        state = step(state, letter)
    return state


def accepts(kind: Kind, j: int, n: int, word: Word) -> bool:
    return run(kind, j, n, word).accepting


@dataclass(frozen=True)
class ProductState:
    """Lazy intersection state: one component per element of u, then d.

    Components are ordered u ascending then d ascending; u and d may
    intersect, in which case the shared parameter appears once per side.
    """

    states: tuple[AutomatonState, ...]
    orientation: Orientation

    def state_for(self, kind: Kind, j: int) -> AutomatonState:
        for state in self.states:
            if state.kind is kind and state.j0 == j:
                return state
        raise KeyError((kind, j))


def classify(product: ProductState) -> Status:
    """Dead if any component is dead, else ill if any is ill, else healthy."""
    statuses = {state.status for state in product.states}
    if Status.DEAD in statuses:
        return Status.DEAD
    if Status.ILL in statuses:
        return Status.ILL
    return Status.HEALTHY


def initial_product(orientation: Orientation) -> ProductState:
    states = tuple(
        initial_state(kind, j, orientation.n)
        for kind, values in ((Kind.UP, orientation.u), (Kind.DOWN, orientation.d))
        for j in sorted(values)
    )
    return ProductState(states, orientation)


def step_product(product: ProductState, letter: int) -> ProductState:
    return ProductState(
        tuple(step(state, letter) for state in product.states), product.orientation
    )


def step_alive(product: ProductState, letter: int) -> ProductState | None:
    """step_product, or None when the step kills a component."""
    nxt = step_product(product, letter)
    return None if classify(nxt) is Status.DEAD else nxt


def run_product(orientation: Orientation, word: Word) -> ProductState:
    """Component-wise run; the word is accepted iff no component dies."""
    product = initial_product(orientation)
    for letter in word:
        product = step_product(product, letter)
    return product


def product_accepts(orientation: Orientation, word: Word) -> bool:
    # dead is absorbing, so stop at the first death
    product = initial_product(orientation)
    for letter in word:
        product = step_product(product, letter)
        if classify(product) is Status.DEAD:
            return False
    return True


def exists_accepted(pi: Permutation, orientation: Orientation, *, enumerate_all: bool = False) -> bool:
    """Does some reduced expression of pi pass every automaton of the orientation?

    For disjoint u, d this is equivalent to plain subword avoidance, so the
    O(n) predicate answers unless enumerate_all forces the search over the
    reduced expressions themselves.  Verification suites always compare the
    two routes.  Non-disjoint orientations have no shortcut and are always
    searched.

    The search walks the left-descent tree of the reduced expressions,
    threading the product state along and cutting dead subtrees (dead is
    absorbing, so nothing down there can be accepted).
    """
    if not enumerate_all and orientation.is_disjoint:
        return is_minimal(pi, orientation)
    words = walk_reduced_words(pi, state=initial_product(orientation), advance=step_alive)
    return next(words, None) is not None


def exists_accepted_single(pi: Permutation, kind: Kind, j: int) -> bool:
    """Brute-force: does some reduced expression of pi pass one automaton?

    Unlike Orientation, j may take the boundary values 1 and n.
    """
    return any(accepts(kind, j, pi.n, word) for word in all_reduced_words(pi))


def accepted_final_state(pi: Permutation, kind: Kind, j: int) -> AutomatonState | None:
    """The common final state of all accepted reduced expressions of pi.

    None when no reduced expression is accepted.  All accepted expressions
    end at one state; that is re-proved exhaustively by the test suite, and
    asserted here.
    """
    final: AutomatonState | None = None
    for word in all_reduced_words(pi):
        state = run(kind, j, pi.n, word)
        if state.accepting:
            if final is not None and state != final:
                raise AssertionError(
                    f"accepted reduced expressions of {pi} end at distinct states"
                )
            final = state
    return final


def expected_final_column(pi: Permutation, kind: Kind, j: int) -> int:
    """Predicted final column parameter for accepted runs.

    UP runs end ninv_below(pi, j) columns to the right of j, DOWN runs
    ninv_above(pi, j) columns to the left.
    """
    above, below = ninv_stats(pi, j)
    return j + below if kind is Kind.UP else j - above


def _state_columns(kind: Kind, j: int, n: int) -> list[int]:
    return list(range(j, n + 1)) if kind is Kind.UP else list(range(j, 0, -1))


def _node_name(state: AutomatonState) -> str:
    tag = "U" if state.kind is Kind.UP else "D"
    return f"{tag}{state.j0}_{state.param}_{state.status}"


def _column_states(kind: Kind, j: int, n: int) -> list[AutomatonState]:
    boundary = n if kind is Kind.UP else 1
    states = []
    for m in _state_columns(kind, j, n):
        states.append(AutomatonState(kind, m, Status.HEALTHY, j, n))
        states.append(AutomatonState(kind, m, Status.ILL, j, n))
        if m != boundary:
            states.append(AutomatonState(kind, m, Status.DEAD, j, n))
    return states


def export_dot(kind: Kind, j: int, n: int) -> str:
    """Deterministic DOT rendering of one automaton.

    Accepting states are double circles; loops are omitted, matching the
    convention that missing transitions loop.
    """
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in 1..{n}, got {j}")
    states = _column_states(kind, j, n)
    tag = "U" if kind is Kind.UP else "D"
    lines = [f'digraph "{tag}{j}_n{n}" {{', "  rankdir=LR;"]
    lines.append('  start [shape=none, label=""];')
    for state in states:
        shape = "doublecircle" if state.accepting else "circle"
        lines.append(f'  {_node_name(state)} [shape={shape}];')
    lines.append(f"  start -> {_node_name(initial_state(kind, j, n))};")
    for state in states:
        for letter in range(1, n):
            target = step(state, letter)
            if target != state:
                lines.append(
                    f'  {_node_name(state)} -> {_node_name(target)} [label="s{letter}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _product_name(product: ProductState) -> str:
    return "__".join(_node_name(state) for state in product.states)


def export_dot_product(orientation: Orientation, n: int, reachable_only: bool = False) -> str:
    """Deterministic DOT rendering of the intersection automaton.

    With reachable_only the graph is restricted to the states reachable
    from the start tuple; otherwise the full cartesian product is drawn.
    """
    if orientation.n != n:
        raise ValueError("orientation degree does not match n")
    start = initial_product(orientation)

    def product_sort_key(product: ProductState):
        return tuple((s.param, s.status.value) for s in product.states)

    if reachable_only:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for product in frontier:
                for letter in range(1, n):
                    target = step_product(product, letter)
                    if target not in seen:
                        seen.add(target)
                        nxt.append(target)
            frontier = sorted(nxt, key=product_sort_key)
        nodes = sorted(seen, key=product_sort_key)
    else:
        components = [
            _column_states(kind, j, n)
            for kind, values in ((Kind.UP, orientation.u), (Kind.DOWN, orientation.d))
            for j in sorted(values)
        ]
        nodes = sorted(
            (ProductState(states, orientation) for states in itertools.product(*components)),
            key=product_sort_key,
        )

    name = "_".join(
        ["P"]
        + [f"u{j}" for j in sorted(orientation.u)]
        + [f"d{j}" for j in sorted(orientation.d)]
    )
    lines = [f'digraph "{name}_n{n}" {{', "  rankdir=LR;"]
    lines.append('  start [shape=none, label=""];')
    node_set = set(nodes)
    for product in nodes:
        shape = "doublecircle" if classify(product) is not Status.DEAD else "circle"
        lines.append(f'  "{_product_name(product)}" [shape={shape}];')
    lines.append(f'  start -> "{_product_name(start)}";')
    for product in nodes:
        for letter in range(1, n):
            target = step_product(product, letter)
            if target != product and target in node_set:
                lines.append(
                    f'  "{_product_name(product)}" -> "{_product_name(target)}" [label="s{letter}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
