"""Definitions the package no longer needs that the test oracles still use,
and the bodies that faster routes replaced, kept to compare against."""
from permutree.core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_permutations,
    all_reduced_words,
    evaluate,
    is_minimal,
    right_multiply,
)
from permutree.sorting import PriorityOrder, check_sorting_network, network_mismatch
from permutree.trees import (
    GeneratingTree,
    WeakOrderDiagram,
    edge_color,
    lexmin_word,
)
from permutree.verify import NETWORK_POSITIVES


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
    entries = tuple(evaluate(word).entries for word in words)
    return GeneratingTree(tuple(words), entries, orientation, priority)


def oracle_tree_edges(tree):
    """(parent, child, last letter) for every non-root node, the parent
    built as a Word: the GeneratingTree.edges the tree's stored entries
    replaced."""
    return tuple((Word(w.letters[:-1], w.n), w, w.letters[-1]) for w in tree.nodes if len(w))


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
    for parent, child, letter in oracle_tree_edges(tree):
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


def oracle_check_networks():
    """check_networks scanning all of S_5 for every candidate template
    before asking the two witnesses."""
    violations = []
    orientation = Orientation(frozenset({2}), frozenset({4}), 5)
    w0 = Permutation.from_text("54321")
    witnesses = [Permutation.from_text("54213"), Permutation.from_text("35421")]
    candidates = all_reduced_words(w0)
    if len(candidates) != 768:
        violations.append(f"54321 has {len(candidates)} reduced words, expected 768")
    for template in candidates:
        if check_sorting_network(template, orientation) is None:
            violations.append(f"valid network found: {template}")
        if not any(network_mismatch(template, orientation, pi) for pi in witnesses):
            violations.append(f"{template} not refuted by the two witnesses")
    for letters, u, d, n in NETWORK_POSITIVES:
        template = Word(letters, n)
        orientation = Orientation(frozenset(u), frozenset(d), n)
        counterexample = check_sorting_network(template, orientation)
        if counterexample is not None:
            violations.append(f"{template} refuted by {counterexample}")
    return violations
