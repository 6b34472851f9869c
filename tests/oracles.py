"""Definitions the package no longer needs that the test oracles still use,
the bodies that faster routes replaced, kept to compare against, the
opt-in marker of the slow parameter sets, and a guard that refuses calls
to package functions.

The suite oracles look the predicates they compare against (contains_pattern,
is_minimal, ninv_stats) up on the verify module, as the suites do, so a test
patching one there patches both."""
import functools
import itertools
import os
import random

import pytest

from permutree import automata, core, coxeter, sorting, trees, verify
from permutree.automata import (
    Status,
    accepts,
    classify,
    exists_accepted,
    initial_product,
    label,
    product_accepts,
    product_table,
    run,
    step_product,
)
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
from permutree.coxeter import (
    CoxeterWord,
    all_coxeter_words,
    c_sorting,
    c_sorting_word,
    is_c_sortable,
    is_decreasing,
    orientation_of,
)
from permutree.sorting import PriorityOrder, check_sorting_network, network_mismatch
from permutree.trees import (
    GeneratingTree,
    edge_color,
    generating_tree,
    lexmin_word,
)
from permutree.verify import (
    END_STATE_CASES,
    NETWORK_POSITIVES,
    PREFIX_SEED,
    PREFIX_SHUFFLES,
    catalan,
    disjoint_orientations,
)


def slow(*values):
    """A parameter set that runs only when PERMUTREE_SLOW is set, and is
    skipped (not silently dropped) otherwise."""
    skip = pytest.mark.skipif(not os.environ.get("PERMUTREE_SLOW"), reason="set PERMUTREE_SLOW=1")
    return pytest.param(*values, marks=skip)


PACKAGE_MODULES = (core, automata, sorting, coxeter, trees, verify)


def refuse_everywhere(monkeypatch, *names, modules=PACKAGE_MODULES):
    """Make each named function raise, in every one of modules (by default
    every package module) that binds it."""
    for name in names:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} must not be called")

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, refuse)


def all_orientations(n):
    """Every pair (u, d) of subsets of 2..n-1, disjoint or not."""
    values = range(2, n)
    subsets = [
        frozenset(s) for size in range(n - 1) for s in itertools.combinations(values, size)
    ]
    for u in subsets:
        for d in subsets:
            yield Orientation(u, d, n)


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


def oracle_generating_tree(orientation, priority=None):
    """generating_tree by enumeration: scan S_n, search each minimal
    permutation's lexmin word, and sort the words by length and priority."""
    orientation.require_disjoint()
    n = orientation.n
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


@functools.cache
def oracle_weak_order_hasse(n):
    """The weak-order covers (pi, pi * s_l) of S_n, each built by a validated
    right_multiply: the pairs the tree overlay draws.  Cached, since the
    tree oracle draws the overlay once per orientation and priority."""
    covers = []
    for pi in all_permutations(n):
        for letter in range(1, n):
            if pi.value_at(letter) < pi.value_at(letter + 1):
                covers.append((pi, right_multiply(pi, letter)))
    return tuple(covers)


def oracle_export_tree_dot(tree, overlay=False):
    """export_tree_dot evaluating every edge's ends, taking the covers from
    oracle_weak_order_hasse and searching each cover's letter among the
    right multiplications."""
    n = tree.n
    lines = ["digraph tree {", "  rankdir=BT;"]
    tree_perms = {}
    for word in tree.nodes:
        tree_perms[evaluate(word)] = word
    tree_edges = set()
    for parent, child, letter in oracle_tree_edges(tree):
        tree_edges.add((evaluate(parent), evaluate(child), letter))

    if overlay:
        for pi in all_permutations(n):
            if pi in tree_perms:
                lines.append(f'  "{pi}" [shape=box, style=bold];')
            else:
                lines.append(f'  "{pi}" [shape=box, color=gray, fontcolor=gray];')
        edges = []
        for low, high in oracle_weak_order_hasse(n):
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


def oracle_check_prefix_closure(max_n):
    """check_prefix_closure re-stepping every reduced word from the start
    state of each orientation's own product, and reading its verdicts with
    classify.  Minimality is looked up on the verify module, as the suite
    does, so a test patching it there patches both."""
    violations = []
    rng = random.Random(PREFIX_SEED)
    for n in range(2, max_n + 1):
        shuffles = [PriorityOrder.shuffled(n, rng) for _ in range(PREFIX_SHUFFLES)]
        priorities = dict.fromkeys([PriorityOrder.natural(n), *shuffles])
        orientations = list(disjoint_orientations(n))
        steppers = [
            (o, functools.partial(step_product, product_table(o)), initial_product(o))
            for o in orientations
        ]
        for pi in all_permutations(n):
            words = all_reduced_words(pi)
            for orientation, advance, start in steppers:
                minimal = verify.is_minimal(pi, orientation)
                for word in words:
                    head = functools.reduce(advance, word.letters[:-1], start)
                    last = advance(head, word.letters[-1]) if word else head
                    head_ok = classify(head) is not Status.DEAD
                    accepted = classify(last) is not Status.DEAD
                    if accepted != (head_ok and minimal):
                        violations.append(
                            f"n={n} {orientation} word {word}: accepted={accepted} "
                            f"prefix accepted={head_ok} minimal={minimal}"
                        )
        for priority in priorities:
            for orientation in orientations:
                table = {}
                for pi in all_permutations(n):
                    word = lexmin_word(pi, orientation, priority)
                    if word is not None:
                        table[pi] = word
                tree = {
                    evaluate(node): node
                    for node in generating_tree(orientation, priority).nodes
                }
                where = (
                    f"n={n} priority={priority.order} "
                    f"u={sorted(orientation.u)} d={sorted(orientation.d)}"
                )
                mismatches = []
                for pi, word in table.items():
                    node = tree.pop(pi, None)
                    if word:
                        prefix = Word(word.letters[:-1], n)
                        owner = right_multiply(pi, word.letters[-1])
                        if table.get(owner) != prefix:
                            violations.append(
                                f"{where}: prefix {prefix} of {word} is not the word of {owner}"
                            )
                            continue
                    if node != word:
                        mismatches.append((pi, node, word))
                mismatches += [(pi, node, None) for pi, node in tree.items()]
                violations += [
                    f"{where}: tree word {node} of {pi} is not its lexmin word {word}"
                    for pi, node, word in mismatches
                ]
    return violations


def oracle_final_vectors(pi):
    """{final vector: count} of pi's reduced words, each stepped on its own
    through all 2(n-2) automata of its degree: what final_vectors reads off
    the weak order."""
    n = pi.n
    full = Orientation(frozenset(range(2, n)), frozenset(range(2, n)), n)
    advance = functools.partial(step_product, product_table(full))
    finals = {}
    for word in all_reduced_words(pi):
        vector = functools.reduce(advance, word.letters, initial_product(full))
        finals[vector] = finals.get(vector, 0) + 1
    return finals


# The per-word bodies of the suites that read final_vectors instead: each
# enumerates pi's reduced words and runs every word through each automaton,
# or searches the descent tree for an accepted one.


def oracle_check_theorem_single(max_n):
    violations = []
    for n in range(2, max_n + 1):
        for pi in all_permutations(n):
            words = all_reduced_words(pi)
            for j in range(2, n):
                for kind in (Kind.UP, Kind.DOWN):
                    by_automaton = any(accepts(kind, j, word) for word in words)
                    by_pattern = not verify.contains_pattern(pi, j, kind)
                    if by_automaton != by_pattern:
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: "
                            f"automaton={by_automaton} pattern={by_pattern}"
                        )
    return violations


def oracle_check_theorem_product(max_n):
    violations = []
    for n in range(2, max_n + 1):
        orientations = list(disjoint_orientations(n))
        for pi in all_permutations(n):
            for orientation in orientations:
                by_automata = exists_accepted(pi, orientation)
                by_pattern = verify.is_minimal(pi, orientation)
                if by_automata != by_pattern:
                    violations.append(
                        f"n={n} pi={pi} u={sorted(orientation.u)} d={sorted(orientation.d)}: "
                        f"automata={by_automata} pattern={by_pattern}"
                    )
    return violations


def oracle_check_end_state_stats():
    violations = []
    for text, j, total, want in END_STATE_CASES:
        pi = Permutation.from_text(text)
        words = all_reduced_words(pi)
        if len(words) != total:
            violations.append(f"{text}: {len(words)} reduced expressions, expected {total}")
        got = {}
        for word in words:
            column, status = label(Kind.UP, j, run(Kind.UP, j, word))
            key = (status.value, column)
            got[key] = got.get(key, 0) + 1
        if got != want:
            violations.append(f"{text}: final-state counts {got} != {want}")
    return violations


def oracle_check_unique_final_state(max_n):
    violations = []
    for n in range(2, max_n + 1):
        for pi in all_permutations(n):
            words = all_reduced_words(pi)
            for j in range(2, n):
                above, below = verify.ninv_stats(pi, j)
                for kind in (Kind.UP, Kind.DOWN):
                    finals = [label(kind, j, run(kind, j, w)) for w in words]
                    accepted = {s for s in finals if s[1] is not Status.DEAD}
                    if len(accepted) > 1:
                        violations.append(f"n={n} pi={pi} j={j} {kind.value}: {accepted}")
                        continue
                    column = j + below if kind is Kind.UP else j - above
                    if any(s[0] != column for s in accepted):
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: column != {column}"
                        )
                    outer, inner = (above, below) if kind is Kind.UP else (below, above)
                    if outer == 0:
                        if len(set(finals)) != 1 or finals[0][1] is not Status.HEALTHY:
                            violations.append(
                                f"n={n} pi={pi} j={j} {kind.value}: healthy case violated"
                            )
                    elif inner == 0:
                        if len(set(finals)) != 1:
                            violations.append(
                                f"n={n} pi={pi} j={j} {kind.value}: common-state case violated"
                            )
                    elif accepted and next(iter(accepted))[1] is not Status.ILL:
                        violations.append(
                            f"n={n} pi={pi} j={j} {kind.value}: accepted state not ill"
                        )
    return violations


def oracle_check_csorting(max_n):
    """check_csorting asking conditions 3-4 of a descent-tree search per
    (pi, orientation) and per (pi, automaton of the orientation)."""
    violations = []
    for n in range(2, max_n + 1):
        want = catalan(n)
        perms = tuple(all_permutations(n))
        words = tuple(all_coxeter_words(n))
        orientations = [orientation_of(c) for c in words]
        shared = {}
        for orientation in dict.fromkeys(orientations):
            singles = [Orientation(orientation.u & {j}, orientation.d & {j}, n) for j in range(2, n)]
            shared[orientation] = [
                (
                    exists_accepted(pi, orientation),
                    all(exists_accepted(pi, single) for single in singles),
                    verify.is_minimal(pi, orientation),
                )
                for pi in perms
            ]
        for c, orientation in zip(words, orientations):
            sortable = 0
            for pi, orientation_conditions in zip(perms, shared[orientation]):
                blocks, word = c_sorting(pi, c)
                conditions = (
                    is_decreasing(blocks),
                    product_accepts(orientation, word),
                    *orientation_conditions,
                )
                sortable += all(conditions)
                if len(set(conditions)) > 1:
                    violations.append(f"n={n} c={c}: pi={pi} conditions={conditions}")
            if sortable != want:
                violations.append(f"n={n} c={c}: {sortable} sortable != {want}")
    pi = Permutation.from_text("4213")
    c = CoxeterWord(Word((2, 1, 3), 4))
    word = c_sorting_word(pi, c)
    if word.letters != (1, 3, 2, 1):
        violations.append(f"sorting word of 4213: {word}")
    if accepts(Kind.UP, 2, word):
        violations.append("sorting word of 4213 unexpectedly accepted")
    if verify.contains_pattern(pi, 2, Kind.UP):
        violations.append("4213 unexpectedly contains the up-subword at 2")
    if max_n >= 5:
        stated = Permutation.from_text("41325")
        sortable_for = [str(c) for c in all_coxeter_words(5) if is_c_sortable(stated, c)]
        if sortable_for:
            violations.append(
                f"41325 is c-sortable for {len(sortable_for)} Coxeter words "
                f"({'; '.join(sortable_for)}), not for none"
            )
    return violations
