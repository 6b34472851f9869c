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
as the product of the component sizes) is never built.  Whether a single
word is accepted needs no product state at all: product_accepts runs each
component on its own.
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
# the automata (kind, j) of a product, in its order; an orientation's components
Components = tuple[tuple[Kind, int], ...]


def state_count(kind: Kind, j: int, n: int) -> int:
    """Three states per column, less the boundary column's dead state."""
    return 3 * (n - j + 1 if kind is Kind.UP else j) - 1


def label(kind: Kind, j: int, code: int) -> tuple[int, Status]:
    """The (column, status) of a code of the automaton with parameter j."""
    offset = code // 3
    return (j + offset if kind is Kind.UP else j - offset), STATUSES[code % 3]


def initial_state(kind: Kind, j: int, n: int) -> int:
    """Healthy start state; j = n (UP) and j = 1 (DOWN) are the accept-all boundaries."""
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in 1..{n}, got {j}")
    return 0


@functools.lru_cache(maxsize=256)
def table(kind: Kind, j: int, n: int) -> Table:
    """The transition table of one automaton; any letter not drawn loops.

    The column rule lives here, and run, export_dot, sorting.sort_single and
    sorting.network_candidate read it off the table: in column m the letter
    m-1 (UP) or m (DOWN) makes healthy ill, and m (UP) or m-1 (DOWN)
    advances healthy a column on and kills ill.  At the boundary column the
    advancing letter is n or 0, which is no letter.  The table has about
    3n^2 entries; 256 tables cover every automaton up to n = 15.  From the
    start of column 3, letter 2 makes UP ill (code 1) and letter 3 advances
    it (code 3); DOWN swaps the two:

    >>> up, down = table(Kind.UP, 3, 5), table(Kind.DOWN, 3, 5)
    >>> [up[letter][0] for letter in range(1, 5)], [down[letter][0] for letter in range(1, 5)]
    ([0, 1, 3, 0], [0, 3, 1, 0])
    """
    size = state_count(kind, j, n)
    loops = list(range(size))
    rows = [loops.copy() for _ in range(n)]  # copies share the int objects; rows[0] is dropped
    for healthy in range(initial_state(kind, j, n), size, 3):
        m = label(kind, j, healthy)[0]
        ill, advance = (m - 1, m) if kind is Kind.UP else (m, m - 1)
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
def product_table(components: Components, n: int) -> ProductTable:
    """The rows of the product of the degree-n automata components, in their order."""
    deltas = [table(kind, j, n) for kind, j in components]
    return tuple(tuple(delta[letter] for delta in deltas) for letter in range(n))


def initial_product(components: Components) -> tuple[int, ...]:
    """Every component starts at its initial state, code 0."""
    return (0,) * len(components)


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


def merge_dead(rows: ProductTable) -> ProductTable:
    """The rows with every dead code sent to 2, the first column's dead code.

    Dead states loop on every letter, 2 among them, so products that differ
    only in where a component died step alike once merged, and each keeps
    its dead_mask.
    """
    return tuple(
        tuple(tuple(2 if code % 3 == 2 else code for code in row) for row in letter_rows)
        for letter_rows in rows
    )


def step_product(rows: ProductTable, product: tuple[int, ...], letter: int) -> tuple[int, ...]:
    return tuple(map(getitem, rows[letter], product))


def step_alive(rows: ProductTable, product: tuple[int, ...], letter: int) -> tuple[int, ...] | None:
    """step_product, or None when the step kills a component."""
    nxt = step_product(rows, product, letter)
    return None if classify(nxt) is Status.DEAD else nxt


def product_accepts(orientation: Orientation, word: Word) -> bool:
    """Does the word pass every automaton of the orientation?

    An intersection accepts iff each component does, and dead is absorbing,
    so each component runs alone through its own table, and no product
    tuple is built.
    """
    orientation.require_degree(word.n, "word")
    letters = word.letters
    for kind, j in orientation.components:
        delta = table(kind, j, orientation.n)
        code = 0
        for letter in letters:
            code = delta[letter][code]
        if code % 3 == 2:
            return False
    return True


def exists_accepted(pi: Permutation, orientation: Orientation) -> bool:
    """Does some reduced expression of pi pass every automaton of the orientation?

    A walk of pi's left-descent tree, threading the product state along and
    cutting a subtree whose state is dead (dead is absorbing) or already led
    nowhere, so its work is bounded by the product states it meets.  The
    answer equals core.is_minimal, the O(n) subword test, and the tests
    compare it with the suites' final_vectors route.  With trees.lexmin_word
    it is one of the package's two public searches; final_vectors answers
    the same question for all of S_n, so nothing in the package calls either.
    """
    orientation.require_degree(pi.n)
    parts = orientation.components
    advance = functools.partial(step_alive, product_table(parts, pi.n))
    words = walk_reduced_words(pi, state=initial_product(parts), advance=advance)
    return next(words, None) is not None


def _labels(kind: Kind, j: int, n: int) -> tuple[list[str], list[tuple[int, str]]]:
    """Each code's DOT name and (column, status name) sort key, in code order."""
    tag = "U" if kind is Kind.UP else "D"
    decoded = (label(kind, j, code) for code in range(state_count(kind, j, n)))
    keys = [(column, status.value) for column, status in decoded]
    return [f"{tag}{j}_{column}_{status}" for column, status in keys], keys


def _write_dot(graph: str, n: int, nodes, start, name, status, move) -> str:
    """The DOT text of an automaton whose states are nodes, in that order.

    name[state] is a state's DOT id, status(state) its Status (dead states
    are circles, accepting ones double circles), and move(state, letter) its
    target; loops are omitted, matching the convention that missing
    transitions loop.
    """
    lines = [f'digraph "{graph}" {{', "  rankdir=LR;", '  start [shape=none, label=""];']
    for state in nodes:
        shape = "circle" if status(state) is Status.DEAD else "doublecircle"
        lines.append(f"  {name[state]} [shape={shape}];")
    lines.append(f"  start -> {name[start]};")
    for state in nodes:
        source = name[state]
        for letter in range(1, n):
            target = move(state, letter)
            if target != state:
                lines.append(f'  {source} -> {name[target]} [label="s{letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(kind: Kind, j: int, n: int) -> str:
    """Deterministic DOT rendering of one automaton, its states in code order."""
    tag = "U" if kind is Kind.UP else "D"
    return _write_dot(
        f"{tag}{j}_n{n}", n, range(state_count(kind, j, n)), initial_state(kind, j, n),
        name=_labels(kind, j, n)[0],
        status=lambda code: STATUSES[code % 3],
        move=functools.partial(step, table(kind, j, n)),
    )


def export_dot_product(orientation: Orientation, reachable_only: bool = False) -> str:
    """Deterministic DOT rendering of the intersection automaton.

    With reachable_only the graph is restricted to the states reachable
    from the start tuple; otherwise the full cartesian product is drawn.
    Nodes are sorted by the (column, status name) of each component, and
    each drawn state is named once, from its components' decoded labels.
    """
    n = orientation.n
    parts = orientation.components
    move = functools.partial(step_product, product_table(parts, n))
    start = initial_product(parts)
    decoded = [_labels(kind, j, n) for kind, j in parts]
    names, keys = [d[0] for d in decoded], [d[1] for d in decoded]

    if reachable_only:
        states = {start}
        todo = [start]
        while todo:
            product = todo.pop()
            for letter in range(1, n):
                target = move(product, letter)
                if target not in states:
                    states.add(target)
                    todo.append(target)
    else:
        states = itertools.product(*(range(state_count(kind, j, n)) for kind, j in parts))
    nodes = sorted(states, key=lambda product: tuple(map(getitem, keys, product)))
    name = {product: '"' + "__".join(map(getitem, names, product)) + '"' for product in nodes}

    graph = "_".join(["P"] + [f"{'u' if kind is Kind.UP else 'd'}{j}" for kind, j in parts])
    return _write_dot(f"{graph}_n{n}", n, nodes, start, name=name, status=classify, move=move)
