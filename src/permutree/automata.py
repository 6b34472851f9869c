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

A word is accepted iff its final state is healthy or ill.

Each automaton (kind, j, n) is compiled once into an integer transition
table.  The state in column m with status s has the code 3*|m - j| + s,
where s is 0 healthy, 1 ill, 2 dead: a code's status is code % 3, and code
order runs column by column away from j, healthy before ill before dead.
The boundary column comes last and has no dead state, so the codes of an
automaton are 0 .. 3*columns - 2.  The intersection of several automata
runs lazily: a product state is the tuple of its component codes, stepped
through the component tables, and the product's own table (as many states
as the product of the component sizes) is never built.
"""
from __future__ import annotations

import functools
import itertools
from enum import Enum
from operator import getitem

from .core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    walk_reduced_words,
)


class Status(Enum):
    HEALTHY = "healthy"
    ILL = "ill"
    DEAD = "dead"

    def __str__(self) -> str:
        return self.value


STATUSES = (Status.HEALTHY, Status.ILL, Status.DEAD)  # the status of code c is STATUSES[c % 3]

# table[letter][code] is the target code; table[0] is empty, as 0 is no letter
Table = tuple[tuple[int, ...], ...]
# rows[letter][i] is the row table[letter] of the i-th component of a product
ProductTable = tuple[tuple[tuple[int, ...], ...], ...]


def state_count(kind: Kind, j: int, n: int) -> int:
    """Three states per column, less the boundary column's dead state."""
    return 3 * (n - j + 1 if kind is Kind.UP else j) - 1


def label(kind: Kind, j: int, code: int) -> tuple[int, Status]:
    """The (column, status) of a code of the automaton with parameter j."""
    offset = code // 3
    return (j + offset if kind is Kind.UP else j - offset), STATUSES[code % 3]


def column_letters(kind: Kind, m: int) -> tuple[int, int]:
    """(ill_making, advancing): the letters that act on healthy in column m.

    The first makes healthy ill; the second advances healthy one column on
    and kills ill.  Every other letter loops.

    >>> column_letters(Kind.UP, 3), column_letters(Kind.DOWN, 3)
    ((2, 3), (3, 2))
    """
    return (m - 1, m) if kind is Kind.UP else (m, m - 1)


def initial_state(kind: Kind, j: int, n: int) -> int:
    """Healthy start state; j = n (UP) and j = 1 (DOWN) are the accept-all boundaries."""
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in 1..{n}, got {j}")
    return 0


@functools.lru_cache(maxsize=256)
def table(kind: Kind, j: int, n: int) -> Table:
    """The transition table of one automaton; any letter not drawn loops.

    Each column follows column_letters.  At the boundary column the
    advancing letter is n or 0, which is no letter.  The table has about
    3n^2 entries; 256 tables cover every automaton up to n = 15.
    """
    size = state_count(kind, j, n)
    loops = list(range(size))
    rows = [loops.copy() for _ in range(n)]  # copies share the int objects; rows[0] is dropped
    for healthy in range(initial_state(kind, j, n), size, 3):
        ill, advance = column_letters(kind, label(kind, j, healthy)[0])
        if 1 <= ill < n:
            rows[ill][healthy] = healthy + 1
        if 1 <= advance < n:
            rows[advance][healthy] = healthy + 3
            rows[advance][healthy + 1] = healthy + 2
    return ((),) + tuple(map(tuple, rows[1:]))


def step(delta: Table, code: int, letter: int) -> int:
    """One transition of the automaton whose table is delta."""
    return delta[letter][code]


def run(kind: Kind, j: int, word: Word) -> int:
    """Fold step over the word from the start state; returns the final code.

    The automaton's degree is the word's.  The machine is a plain DFA: it
    reads any word, reduced or not; reducedness is the caller's concern.
    """
    delta = table(kind, j, word.n)
    code = initial_state(kind, j, word.n)
    for letter in word:
        code = step(delta, code, letter)
    return code


def accepts(kind: Kind, j: int, word: Word) -> bool:
    return STATUSES[run(kind, j, word) % 3] is not Status.DEAD


@functools.lru_cache(maxsize=256)
def product_table(orientation: Orientation) -> ProductTable:
    deltas = [table(kind, j, orientation.n) for kind, j in orientation.components]
    return tuple(tuple(delta[letter] for delta in deltas) for letter in range(orientation.n))


def initial_product(orientation: Orientation) -> tuple[int, ...]:
    """Every component starts at its initial state, code 0."""
    return (0,) * len(orientation.components)


def classify(product: tuple[int, ...]) -> Status:
    """Dead if any component is dead, else ill if any is ill, else healthy."""
    worst = 0
    for code in product:  # a plain loop: several times faster than max() on this hot path
        if code % 3 > worst:
            worst = code % 3
    return STATUSES[worst]


def dead_mask(product: tuple[int, ...]) -> int:
    """The bitmask of the product's dead components: bit i for component i."""
    return sum(1 << i for i, code in enumerate(product) if code % 3 == 2)


def step_product(rows: ProductTable, product: tuple[int, ...], letter: int) -> tuple[int, ...]:
    return tuple(map(getitem, rows[letter], product))


def step_alive(rows: ProductTable, product: tuple[int, ...], letter: int) -> tuple[int, ...] | None:
    """step_product, or None when the step kills a component."""
    nxt = step_product(rows, product, letter)
    return None if classify(nxt) is Status.DEAD else nxt


def product_accepts(orientation: Orientation, word: Word) -> bool:
    # dead is absorbing, so stop at the first death
    rows = product_table(orientation)
    product = initial_product(orientation)
    for letter in word:
        product = step_alive(rows, product, letter)
        if product is None:
            return False
    return True


def exists_accepted(pi: Permutation, orientation: Orientation) -> bool:
    """Does some reduced expression of pi pass every automaton of the orientation?

    Always a search over the reduced expressions themselves, for any u and d.
    For disjoint u, d the answer equals core.is_minimal, the O(n) subword
    test, and the tests compare it with the suites' final_vectors route.

    The search walks the left-descent tree of the reduced expressions,
    threading the product state along and cutting dead subtrees (dead is
    absorbing, so nothing down there can be accepted).
    """
    advance = functools.partial(step_alive, product_table(orientation))
    words = walk_reduced_words(pi, state=initial_product(orientation), advance=advance)
    return next(words, None) is not None


def _node_name(kind: Kind, j: int, code: int) -> str:
    column, status = label(kind, j, code)
    return f"{'U' if kind is Kind.UP else 'D'}{j}_{column}_{status}"


def _write_dot(graph: str, n: int, nodes, start, name, status, move) -> str:
    """The DOT text of an automaton whose states are nodes, in that order.

    name(state) is a state's DOT id, status(state) its Status (dead states
    are circles, accepting ones double circles), and move(state, letter) its
    target; loops are omitted, matching the convention that missing
    transitions loop.
    """
    lines = [f'digraph "{graph}" {{', "  rankdir=LR;", '  start [shape=none, label=""];']
    for state in nodes:
        shape = "circle" if status(state) is Status.DEAD else "doublecircle"
        lines.append(f"  {name(state)} [shape={shape}];")
    lines.append(f"  start -> {name(start)};")
    for state in nodes:
        for letter in range(1, n):
            target = move(state, letter)
            if target != state:
                lines.append(f'  {name(state)} -> {name(target)} [label="s{letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(kind: Kind, j: int, n: int) -> str:
    """Deterministic DOT rendering of one automaton, its states in code order."""
    tag = "U" if kind is Kind.UP else "D"
    return _write_dot(
        f"{tag}{j}_n{n}", n, range(state_count(kind, j, n)), initial_state(kind, j, n),
        name=functools.partial(_node_name, kind, j),
        status=lambda code: STATUSES[code % 3],
        move=functools.partial(step, table(kind, j, n)),
    )


def export_dot_product(orientation: Orientation, reachable_only: bool = False) -> str:
    """Deterministic DOT rendering of the intersection automaton.

    With reachable_only the graph is restricted to the states reachable
    from the start tuple; otherwise the full cartesian product is drawn.
    Nodes are sorted by the (column, status name) of each component.
    """
    n = orientation.n
    parts = orientation.components
    move = functools.partial(step_product, product_table(orientation))
    start = initial_product(orientation)

    def product_sort_key(product: tuple[int, ...]):
        labels = (label(kind, j, code) for (kind, j), code in zip(parts, product))
        return tuple((column, status.value) for column, status in labels)

    def product_name(product: tuple[int, ...]) -> str:
        names = (_node_name(kind, j, code) for (kind, j), code in zip(parts, product))
        return '"' + "__".join(names) + '"'

    if reachable_only:
        seen = {start}
        todo = [start]
        while todo:
            product = todo.pop()
            for letter in range(1, n):
                target = move(product, letter)
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
        nodes = sorted(seen, key=product_sort_key)
    else:
        codes = [range(state_count(kind, j, n)) for kind, j in parts]
        nodes = sorted(itertools.product(*codes), key=product_sort_key)

    graph = "_".join(["P"] + [f"{'u' if kind is Kind.UP else 'd'}{j}" for kind, j in parts])
    return _write_dot(
        f"{graph}_n{n}", n, nodes, start, name=product_name, status=classify, move=move
    )
