"""Definitions the package no longer needs that the test oracles still use,
and the bodies that faster routes replaced, kept to compare against."""
from permutree.core import Kind, Word, all_permutations, evaluate, is_minimal, right_multiply
from permutree.sorting import PriorityOrder
from permutree.trees import (
    GeneratingTree,
    WeakOrderDiagram,
    edge_color,
    lexmin_word,
)


def is_left_inversion(pi, letter):
    """True iff the values letter and letter+1 are reversed in pi.

    Equivalently, left multiplication by s_letter shortens pi.
    """
    entries = pi.entries
    if not 1 <= letter <= len(entries) - 1:
        raise ValueError(f"letter {letter} out of range 1..{len(entries) - 1}")
    return entries.index(letter + 1) < entries.index(letter)


def oracle_contains_pattern(pi, j, kind):
    """contains_pattern as its own scan of j's side (after j for UP, before
    j for DOWN) for a value above j, then one below it."""
    if not 2 <= j <= pi.n - 1:
        raise ValueError(f"j must lie in 2..{pi.n - 1}, got {j}")
    entries = pi.entries
    pos_j = entries.index(j)
    seen_high = False
    for val in entries[pos_j + 1 :] if kind is Kind.UP else entries[:pos_j]:
        if val > j:
            seen_high = True
        elif seen_high:  # j is not on its own side, so val < j
            return True
    return False


def oracle_generating_tree(n, orientation, priority=None):
    """generating_tree by enumeration: scan S_n, search each minimal
    permutation's lexmin word, and sort the words by length and priority."""
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


def oracle_weak_order_hasse(n):
    """weak_order_hasse with each cover built by a validated right_multiply."""
    covers = []
    for pi in all_permutations(n):
        for letter in range(1, n):
            if pi.value_at(letter) < pi.value_at(letter + 1):
                covers.append((pi, right_multiply(pi, letter)))
    return WeakOrderDiagram(n, tuple(covers))


def oracle_export_tree_dot(tree, overlay=None):
    """export_tree_dot evaluating every edge's ends and searching each
    cover's letter among the right multiplications."""
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
