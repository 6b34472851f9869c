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
    Orientation,
    Permutation,
    PriorityOrder,
    Word,
    one_line_writer,
    right_swap,
    walk_reduced_words,
)
from .automata import initial_product, product_table, step_alive

# tree edge colors by letter, cycling beyond the palette
EDGE_COLORS = ("blue", "red", "green", "orange", "purple", "brown", "cyan", "magenta")


def edge_color(letter: int) -> str:
    return EDGE_COLORS[(letter - 1) % len(EDGE_COLORS)]


def lexmin_word(
    pi: Permutation, orientation: Orientation, priority: PriorityOrder | None = None
) -> Word | None:
    """Priority-least reduced expression of pi accepted by every automaton.

    Depth-first search over left descents in priority order, cutting any
    branch whose product state dies or already led nowhere, so bounded by
    the product states it meets, which multiply across components; the
    first completed word is the lexicographic minimum, None iff no reduced
    expression is accepted.  With automata.exists_accepted it is one of the
    package's two public searches; generating_tree and the prefix suite in
    verify reach the same words without it, so nothing in the package calls
    either.
    """
    orientation.require_degree(pi.n)
    parts = orientation.components
    advance = functools.partial(step_alive, product_table(parts, pi.n))
    words = walk_reduced_words(pi, priority, initial_product(parts), advance)
    letters = next(words, None)
    return Word(letters, pi.n) if letters is not None else None


@dataclass(frozen=True)
class GeneratingTree:
    """Prefix-closed set of words, one per minimal permutation; parent drops the last letter.

    words[i] is the letters of the i-th node's word and entries[i] the
    one-line notation of the permutation it evaluates to, so a node's
    permutation is read, never recomputed from its word.
    """

    words: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, ...], ...]
    orientation: Orientation
    priority: PriorityOrder

    @property
    def n(self) -> int:
        return self.orientation.n

    @property
    def nodes(self) -> tuple[Word, ...]:
        """The nodes' words as Words, built at every read."""
        return tuple(Word(letters, self.n) for letters in self.words)

    def to_json(self) -> str:
        write = one_line_writer(self.n)
        return json.dumps(
            {",".join(map(str, w)): write(e) for w, e in zip(self.words, self.entries)},
            sort_keys=True,
        )


def generating_tree(
    orientation: Orientation, priority: PriorityOrder | None = None
) -> GeneratingTree:
    """The generating tree of one priority: generating_trees(orientation, [priority])[0]."""
    return generating_trees(orientation, [priority])[0]


def generating_trees(
    orientation: Orientation, priorities: list[PriorityOrder | None]
) -> list[GeneratingTree]:
    """One tree per priority, each with one node per minimal permutation of
    S_n, n the orientation's degree, built breadth first by length.

    A node tau holds its word w, its entries and its product state.  For an
    ascent l of tau (positions l, l+1), w.l is a reduced word of
    sigma = tau * s_l, and since w is accepted, w.l is accepted iff sigma is
    minimal: the step by l either kills the product or makes sigma a node.
    The lexmin word of sigma drops its last letter to the lexmin word of a
    node one shorter, so it is the least such candidate.  A level's nodes
    are expanded in priority-lex order of their words and each node's
    ascents in priority order, so the first candidate to reach sigma is its
    word, and every level comes out in (length, priority-lex) order.

    Many nodes share a product state, so each distinct (state, ascent) is
    stepped once and its answer, death included, read again after that.
    The node set and each node's node children do not depend on the
    priority, so only the first priority steps the product.  When more
    follow, it notes the children of each node; a child already seen is
    noted without a step, as sigma is then a node and w.l is accepted.
    Each further priority runs the same breadth-first order over the notes.
    """
    n, parts = orientation.n, orientation.components
    first, *others = [PriorityOrder.resolve(p, n, "orientation") for p in priorities]
    advance = functools.partial(step_alive, product_table(parts, n))
    root = tuple(range(1, n + 1))
    seen = {root}
    level = [((), root, initial_product(parts))]
    words, perms = [], []
    stepped = {}  # (product state, l) -> advance(state, l), None when it dies
    noted = {}  # entries -> {ascent l: entries of the node tau * s_l}, when others follow
    while level:
        words.extend(letters for letters, _, _ in level)
        perms.extend(entries for _, entries, _ in level)
        children = []
        for letters, entries, state in level:
            if others:
                kids = noted[entries] = {}
            for l in first.order:
                if entries[l - 1] > entries[l]:
                    continue
                swapped = right_swap(entries, l)
                if swapped not in seen:
                    key = (state, l)
                    if key not in stepped:
                        stepped[key] = advance(state, l)
                    child = stepped[key]
                    if child is None:
                        continue
                    seen.add(swapped)
                    children.append(((*letters, l), swapped, child))
                if others:
                    kids[l] = swapped
        level = children
    trees = [GeneratingTree(tuple(words), tuple(perms), orientation, first)]
    for priority in others:
        seen = {root}
        level = [((), root)]
        words, perms = [], []
        while level:
            words.extend(letters for letters, _ in level)
            perms.extend(entries for _, entries in level)
            children = []
            for letters, entries in level:
                kids = noted[entries]
                for l in priority.order:
                    swapped = kids.get(l)
                    if swapped is not None and swapped not in seen:
                        seen.add(swapped)
                        children.append(((*letters, l), swapped))
            level = children
        trees.append(GeneratingTree(tuple(words), tuple(perms), orientation, priority))
    return trees


def count_minimal(orientation: Orientation) -> int:
    """Number of minimal permutations of S_n, n the orientation's degree, by
    a DP over the number of live insertion slots.

    Insert the values n, n-1, ..., 1 in turn, so every value inserted later
    is smaller.  A slot (a gap between placed values, or an end) is live if
    a value put there now completes no forbidden subword: slot 0 always is,
    and a dead slot stays dead.  Put v at the i-th live slot (from 0) of a
    state with a live slots:
      - v undecorated: both halves of its slot are live, so a + 1 are;
      - v in u: every slot past the first value after v would complete
        v k i, so i + 2 stay live;
      - v in d: every slot between the first value and v would complete
        k i v, so a + 1 - i stay live.
    So an undecorated v sends a to a + 1 in a ways, and a decorated one
    sends a once to each of 2..a+1, whichever side it is on: the count
    depends only on u | d.  With a running suffix sum each value costs O(n)
    big-integer additions, O(n^2) in all.

    >>> count_minimal(Orientation({2, 3}, frozenset(), 4))
    14
    >>> import math
    >>> alternating = Orientation(set(range(2, 200, 2)), set(range(3, 200, 2)), 200)
    >>> count_minimal(alternating) == math.comb(400, 200) // 201
    True
    """
    decorated = orientation.u | orientation.d
    ways = [0, 1]  # ways[a]: insertions so far that leave a live slots
    for v in range(orientation.n, 0, -1):
        if v in decorated:
            # ways[b] becomes the sum of ways[a] over a >= b - 1 >= 1
            tails = itertools.accumulate(reversed(ways[1:]))
            ways = [0, 0, *reversed(list(tails))]
        else:
            ways = [0, *(a * count for a, count in enumerate(ways))]
    return sum(ways)


def export_tree_dot(tree: GeneratingTree, overlay: bool = False) -> str:
    """Deterministic DOT: tree edges colored by their letter, bold; with the
    overlay, the rest of S_n and its weak-order covers in gray.

    A node's parent is its permutation times s_l, l its word's last letter,
    so each tree edge is read off its child's entries, and each permutation
    drawn is named once.
    The overlay draws S_n in lex order and, from each pi, the cover
    pi -> pi * s_l for each ascent l, running l down so the covers come out
    in entries order; a cover is a tree edge iff the tree has that edge.
    Edges are drawn in entries order, which is text order only while the
    names are single digits (n <= 9).
    """
    n = tree.n
    styles = {l: f"color={edge_color(l)}, penwidth=2" for l in range(1, n)}
    tree_edges = {
        (right_swap(entries, letters[-1]), entries): styles[letters[-1]]
        for letters, entries in zip(tree.words, tree.entries)
        if letters
    }
    if overlay:
        nodes = list(itertools.permutations(range(1, n + 1)))
        covers = (
            (low, right_swap(low, l))
            for low in nodes
            for l in range(n - 1, 0, -1)
            if low[l - 1] < low[l]
        )
    else:
        nodes, covers = sorted(tree.entries), sorted(tree_edges)
    names = dict(zip(nodes, map(one_line_writer(n), nodes)))
    lines = ["digraph tree {", "  rankdir=BT;"]
    if overlay:
        kept = set(tree.entries)
        for entries, name in names.items():
            style = ", style=bold" if entries in kept else ", color=gray, fontcolor=gray"
            lines.append(f'  "{name}" [shape=box{style}];')
    else:  # every node drawn is the tree's
        lines += [f'  "{name}" [shape=box];' for name in names.values()]
    for low, high in covers:
        style = tree_edges.get((low, high), "color=gray")
        lines.append(f'  "{names[low]}" -> "{names[high]}" [{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
