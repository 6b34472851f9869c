"""
Generating trees of lexicographically minimal accepted reduced expressions,
drawn alone or over the weak order of S_n.

The node set of a tree is the set of minimal permutations, each kept as its
one-line entries and labelled by its priority-least accepted reduced
expression; the parent drops the last letter.  Prefix closure of that word
set is what makes this a tree, and it is also how the tree is built:
outward from the identity, one product step per (node, ascent), with no
scan of S_n and no search over reduced words.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    one_line_writer,
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

    This is the brute-force route, exponential in the length of pi: the
    failure memo skips repeated dead ends, but on w0 of S_60 (u = {2}, say)
    the search does not finish.  generating_tree reaches the same words
    without it, and the prefix suite in verify reads them off a pass over
    the weak order, so nothing in the package calls it: it is kept as the
    public brute-force route to one word.
    """
    if priority is None:
        priority = PriorityOrder.natural(pi.n)
    advance = functools.partial(step_alive, product_table(orientation))
    words = walk_reduced_words(pi, priority.key, initial_product(orientation), advance)
    letters = next(words, None)
    return Word(letters, pi.n) if letters is not None else None


@dataclass(frozen=True)
class GeneratingTree:
    """Prefix-closed set of words, one per minimal permutation; parent drops the last letter.

    entries[i] is the one-line notation of the permutation nodes[i] evaluates
    to, so a node's permutation is read, never recomputed from its word.
    """

    nodes: tuple[Word, ...]
    entries: tuple[tuple[int, ...], ...]
    orientation: Orientation
    priority: PriorityOrder

    @property
    def n(self) -> int:
        return self.orientation.n

    def to_json(self) -> str:
        write = one_line_writer(self.n)
        return json.dumps(
            {str(w): write(e) for w, e in zip(self.nodes, self.entries)}, sort_keys=True
        )


def generating_tree(
    orientation: Orientation, priority: PriorityOrder | None = None
) -> GeneratingTree:
    """One node per minimal permutation of S_n, n the orientation's degree,
    built breadth first by length.

    A node tau holds its word w, its entries and its product state.  For an
    ascent l of tau (positions l, l+1), w.l is a reduced word of
    sigma = tau * s_l, and since w is accepted, w.l is accepted iff sigma is
    minimal: the step by l either kills the product or makes sigma a node.
    The lexmin word of sigma drops its last letter to the lexmin word of a
    node one shorter, so it is the least such candidate.  A level's nodes
    are expanded in priority-lex order of their words and each node's
    ascents in priority order, so the first candidate to reach sigma is its
    word, and every level comes out in (length, priority-lex) order.
    """
    orientation.require_disjoint()
    n = orientation.n
    if priority is None:
        priority = PriorityOrder.natural(n)
    advance = functools.partial(step_alive, product_table(orientation))
    order = sorted(range(1, n), key=priority.key)
    root = tuple(range(1, n + 1))
    seen = {root}
    level = [((), root, initial_product(orientation))]
    words, perms = [], []
    while level:
        words.extend(Word(letters, n) for letters, _, _ in level)
        perms.extend(entries for _, entries, _ in level)
        children = []
        for letters, entries, state in level:
            for l in order:
                low, high = entries[l - 1], entries[l]
                if low > high:
                    continue
                swapped = (*entries[: l - 1], high, low, *entries[l + 1 :])
                if swapped in seen:
                    continue
                child = advance(state, l)
                if child is not None:
                    seen.add(swapped)
                    children.append(((*letters, l), swapped, child))
        level = children
    return GeneratingTree(tuple(words), tuple(perms), orientation, priority)


def count_minimal(orientation: Orientation) -> int:
    """Number of minimal permutations of S_n, n the orientation's degree, by
    a DP over the set of values already placed.

    A permutation is written left to right.  Whether placing the value v
    next completes a forbidden subword depends only on the set S of values
    placed before it:
      - for j in u: if j is in S and v > j, then {1..j-1} must lie in S
        (else a later i < j completes jki);
      - for j in d: if j is not in S and S holds a value above j, then
        v > j (else the later j completes kij).
    ways[S | {v}] sums ways[S] over the allowed v, visiting only the sets
    some prefix reaches: O(2^n * (n + |u| + |d|)) time and O(2^n) space.

    >>> count_minimal(Orientation({2, 3}, frozenset(), 4))
    14
    """
    orientation.require_disjoint()
    n = orientation.n
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


def export_tree_dot(tree: GeneratingTree, overlay: bool = False) -> str:
    """Deterministic DOT: tree edges colored by their letter, bold; with the
    overlay, the rest of S_n and its weak-order covers in gray.

    Nodes are keyed by their letters, so a node's parent is the node at its
    letters without the last one, and each permutation drawn is named once.
    The overlay walks S_n once, drawing the cover pi -> pi * s_l for each
    ascent l of pi; the cover is drawn as a tree edge iff the tree has an
    edge from pi to pi * s_l, and that edge's letter is then l.
    """
    n = tree.n
    write = one_line_writer(n)
    lines = ["digraph tree {", "  rankdir=BT;"]
    perms = {word.letters: entries for word, entries in zip(tree.nodes, tree.entries)}
    tree_edges = {
        (perms[letters[:-1]], entries): letters[-1]
        for letters, entries in perms.items()
        if letters
    }

    if overlay:
        tree_perms = set(perms.values())
        edges = []
        for entries in itertools.permutations(range(1, n + 1)):
            name = write(entries)
            if entries in tree_perms:
                lines.append(f'  "{name}" [shape=box, style=bold];')
            else:
                lines.append(f'  "{name}" [shape=box, color=gray, fontcolor=gray];')
            for l in range(1, n):
                low, high = entries[l - 1], entries[l]
                if low > high:
                    continue
                swapped = (*entries[: l - 1], high, low, *entries[l + 1 :])
                letter = tree_edges.get((entries, swapped))
                style = "color=gray" if letter is None else f"color={edge_color(letter)}, penwidth=2"
                edges.append(f'  "{name}" -> "{write(swapped)}" [{style}];')
        lines.extend(sorted(edges))
    else:
        names = {entries: write(entries) for entries in sorted(perms.values())}
        lines.extend(f'  "{name}" [shape=box];' for name in names.values())
        lines.extend(
            f'  "{names[low]}" -> "{names[high]}" [color={edge_color(letter)}, penwidth=2];'
            for (low, high), letter in sorted(tree_edges.items())
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
