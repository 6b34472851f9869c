"""
Generating trees of lexicographically minimal accepted reduced expressions,
and the weak-order diagram they are drawn over.

The node set of a tree is the set of minimal permutations, each represented
by its priority-least accepted reduced expression; the parent drops the last
letter.  Prefix closure of that word set is what makes this a tree.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_permutations,
    evaluate,
    is_minimal,
    right_multiply,
    walk_reduced_words,
)
from .automata import initial_product, product_table, step_alive
from .sorting import PriorityOrder

# tree edge colors by letter, cycling beyond the palette
EDGE_COLORS = ("blue", "red", "green", "orange", "purple", "brown", "cyan", "magenta")


def edge_color(letter: int) -> str:
    return EDGE_COLORS[(letter - 1) % len(EDGE_COLORS)]


def lexmin_word(
    pi: Permutation, orientation: Orientation, priority: PriorityOrder | None = None
) -> Word | None:
    """Priority-least reduced expression of pi accepted by every automaton.

    Depth-first search over left descents in priority order, cutting any
    branch whose product state dies; the first completed word is the
    lexicographic minimum.  None iff no reduced expression is accepted.
    """
    if priority is None:
        priority = PriorityOrder.natural(pi.n)
    advance = functools.partial(step_alive, product_table(orientation))
    words = walk_reduced_words(pi, priority.key, initial_product(orientation), advance)
    letters = next(words, None)
    return Word(letters, pi.n) if letters is not None else None


@dataclass(frozen=True)
class GeneratingTree:
    """Prefix-closed set of words, one per minimal permutation; parent drops the last letter."""

    nodes: tuple[Word, ...]
    orientation: Orientation
    priority: PriorityOrder

    @property
    def n(self) -> int:
        return self.orientation.n

    def parent(self, word: Word) -> Word | None:
        if not len(word):
            return None
        return Word(word.letters[:-1], word.n)

    def edges(self) -> tuple[tuple[Word, Word, int], ...]:
        """(parent, child, last letter) for every non-root node."""
        return tuple(
            (self.parent(w), w, w.letters[-1]) for w in self.nodes if len(w)
        )

    def to_json(self) -> str:
        return json.dumps(
            {str(w): str(evaluate(w)) for w in self.nodes}, sort_keys=True
        )


def generating_tree(
    n: int, orientation: Orientation, priority: PriorityOrder | None = None
) -> GeneratingTree:
    """One node per minimal permutation of S_n.

    Prefix closure guarantees parent(w) is itself a node; that is asserted
    rather than assumed.
    """
    orientation.require_disjoint()
    if priority is None:
        priority = PriorityOrder.natural(n)
    words = []
    for pi in all_permutations(n):
        if is_minimal(pi, orientation):
            word = lexmin_word(pi, orientation, priority)
            assert word is not None
            words.append(word)
    words.sort(key=lambda w: (len(w), tuple(priority.key(l) for l in w)))
    node_set = set(words)
    for word in words:
        if len(word) and Word(word.letters[:-1], n) not in node_set:
            raise AssertionError(f"node set is not prefix-closed at {word}")
    return GeneratingTree(tuple(words), orientation, priority)


@dataclass(frozen=True)
class WeakOrderDiagram:
    """All of S_n with its length-increasing adjacent-position swaps."""

    n: int
    covers: tuple[tuple[Permutation, Permutation], ...]


def weak_order_hasse(n: int) -> WeakOrderDiagram:
    """Covers (pi, pi * s_l) with the length going up by one.

    >>> len(weak_order_hasse(3).covers)
    6
    """
    covers = []
    for pi in all_permutations(n):
        for letter in range(1, n):
            if pi.value_at(letter) < pi.value_at(letter + 1):
                covers.append((pi, right_multiply(pi, letter)))
    return WeakOrderDiagram(n, tuple(covers))


def count_minimal(n: int, orientation: Orientation) -> int:
    """Number of minimal permutations of S_n, by a DP over the set of values
    already placed.

    A permutation is written left to right.  Whether placing the value v
    next completes a forbidden subword depends only on the set S of values
    placed before it:
      - for j in u: if j is in S and v > j, then {1..j-1} must lie in S
        (else a later i < j completes jki);
      - for j in d: if j is not in S and S holds a value above j, then
        v > j (else the later j completes kij).
    ways[S | {v}] sums ways[S] over the allowed v, visiting only the sets
    some prefix reaches: O(2^n * (n + |u| + |d|)) time and O(2^n) space.

    >>> count_minimal(4, Orientation({2, 3}, frozenset(), 4))
    14
    """
    orientation.require_disjoint()
    # bit v-1 of a set stands for the value v
    rules = []
    for kind, j in orientation.components:
        below = (1 << (j - 1)) - 1
        above = (1 << n) - 1 - (below << 1 | 1)
        rules.append((kind is Kind.UP, 1 << (j - 1), below, above))
    full = (1 << n) - 1
    ways = [0] * (full + 1)
    ways[0] = 1
    for placed in range(full):
        count = ways[placed]
        if not count:
            continue
        allowed = full ^ placed
        for up, j_bit, below, above in rules:
            if up:
                if placed & j_bit and placed & below != below:
                    allowed &= ~above
            elif not placed & j_bit and placed & above:
                allowed &= ~below
        while allowed:
            bit = allowed & -allowed
            ways[placed | bit] += count
            allowed ^= bit
    return ways[full]


def export_tree_dot(tree: GeneratingTree, overlay: WeakOrderDiagram | None = None) -> str:
    """Deterministic DOT: tree edges colored by their letter, bold; with an
    overlay, the remaining permutations and weak-order covers in gray."""
    n = tree.n
    lines = ["digraph tree {", "  rankdir=BT;"]
    tree_perms = {}
    for word in tree.nodes:
        tree_perms[evaluate(word)] = word
    tree_edges = set()
    for parent, child, letter in tree.edges():
        tree_edges.add((evaluate(parent), evaluate(child), letter))

    if overlay is not None:
        if overlay.n != n:
            raise ValueError("overlay degree does not match the tree")
        for pi in all_permutations(n):
            if pi in tree_perms:
                lines.append(f'  "{pi}" [shape=box, style=bold];')
            else:
                lines.append(f'  "{pi}" [shape=box, color=gray, fontcolor=gray];')
        edges = []
        for low, high in overlay.covers:
            letter = next(
                l for l in range(1, n) if right_multiply(low, l) == high
            )
            if (low, high, letter) in tree_edges:
                edges.append(f'  "{low}" -> "{high}" [color={edge_color(letter)}, penwidth=2];')
            else:
                edges.append(f'  "{low}" -> "{high}" [color=gray];')
        lines.extend(sorted(edges))
    else:
        for pi in sorted(tree_perms, key=lambda p: p.entries):
            lines.append(f'  "{pi}" [shape=box];')
        edges = [
            f'  "{a}" -> "{b}" [color={edge_color(letter)}, penwidth=2];'
            for a, b, letter in sorted(
                tree_edges, key=lambda e: (e[0].entries, e[1].entries)
            )
        ]
        lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
