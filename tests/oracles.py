"""Definitions the package no longer needs that the test oracles still use,
the bodies that faster routes replaced, kept to compare against, the
opt-in marker of the slow parameter sets, a guard that refuses calls
to package functions, a text comparison that says where two long texts
first differ, and the string a trace renders to a stream.

The suite oracles look the predicates they compare against (contains_pattern,
is_minimal, ninv_stats) up on the verify module, as the suites do, so a test
patching one there patches both."""
import functools
import io
import itertools
import os
import random

import pytest

from permutree import automata, core, coxeter, sorting, trees, verify
from permutree.automata import (
    STATUSES,
    Status,
    accepts,
    classify,
    dead_mask,
    exists_accepted,
    initial_product,
    initial_state,
    label,
    product_table,
    run,
    state_count,
    step,
    step_alive,
    step_product,
    table,
)
from permutree.core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_permutations,
    all_reduced_words,
    is_minimal,
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


def identity(n):
    """The identity permutation of S_n; moved here with evaluate, its last
    caller in the package."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return Permutation(tuple(range(1, n + 1)))


def evaluate(word):
    """The permutation s_{i1} ... s_{ik}, letters multiplied left to right:
    the library function that moved here once no package module evaluated
    a word, kept as the reference the tests check the package's words by."""
    entries = list(identity(word.n).entries)
    for letter in word.letters:  # right_multiply in place; Word checked each letter
        entries[letter - 1], entries[letter] = entries[letter], entries[letter - 1]
    return Permutation(tuple(entries))


def word_from_text(text, n):
    """Parse "2,1,3,2,3" (or space-separated); the empty string is the empty word."""
    text = text.strip()
    if not text:
        return Word((), n)
    parts = text.replace(",", " ").split()
    return Word(tuple(int(p) for p in parts), n)


def right_multiply(pi, letter):
    """pi * s_letter: swap the entries at positions letter and letter+1.  The
    library function that moved here once no package module called it."""
    if not 1 <= letter <= pi.n - 1:
        raise ValueError(f"letter {letter} out of range 1..{pi.n - 1}")
    entries = list(pi.entries)
    entries[letter - 1], entries[letter] = entries[letter], entries[letter - 1]
    return Permutation(tuple(entries))


def assert_same_text(got, want, context=None):
    """Require got == want, reporting a mismatch by its first differing line
    (its index, and the text around its first differing character) rather
    than by pytest's diff of the two strings, which does not finish on the
    megabytes a long sort trace renders."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    pairs = itertools.zip_longest(got_lines, want_lines, fillvalue="")
    index, (mine, theirs) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    column = next((c for c, (a, b) in enumerate(zip(mine, theirs)) if a != b), min(len(mine), len(theirs)))
    window = slice(max(column - 40, 0), column + 40)
    where = "" if context is None else f"{context}: "
    raise AssertionError(
        f"{where}line {index} differs at column {column} "
        f"(got {len(got_lines)} lines, want {len(want_lines)}): "
        f"got {mine[window]!r}, want {theirs[window]!r}"
    )


def written(render):
    """The text that render (a trace's to_table or to_json) writes to a stream."""
    out = io.StringIO()
    render(out)
    return out.getvalue()


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
    """Every pair (u, d) of subsets of 2..n-1, disjoint or not, as the
    component list an Orientation would hold: u ascending as UP, then d
    ascending as DOWN.  An overlapping pair is no Orientation, but its
    product still steps."""
    values = range(2, n)
    subsets = [s for size in range(n - 1) for s in itertools.combinations(values, size)]
    for u in subsets:
        for d in subsets:
            yield tuple((Kind.UP, j) for j in u) + tuple((Kind.DOWN, j) for j in d)


def every_component(n):
    """All 2(n-2) automata of degree n in final_vectors' order: UP 2..n-1, then DOWN 2..n-1."""
    return tuple((kind, j) for kind in Kind for j in range(2, n))


def congruence_classes(u, d, n):
    """The (u, d)-permutree congruence classes of S_n (Pilaud and Pons,
    Permutrees), by union-find: pi is joined with pi * s_q when positions q
    and q+1 hold i < k and some j with i < j < k stands before them with j
    in u, or after them with j in d.  It takes the sets, not an Orientation,
    and reads no automaton and no pattern mask."""
    perms = list(itertools.permutations(range(1, n + 1)))
    parent = {p: p for p in perms}

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    for p in perms:
        for q in range(n - 1):
            i, k = p[q], p[q + 1]
            if i < k and (
                any(i < j < k for j in p[:q] if j in u) or any(i < j < k for j in p[q + 2 :] if j in d)
            ):
                parent[find(p)] = find((*p[:q], k, i, *p[q + 2 :]))
    classes = {}
    for p in perms:
        classes.setdefault(find(p), []).append(Permutation(p))
    return list(classes.values())


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


def oracle_pattern_witness(pi, j, kind):
    if not 2 <= j <= pi.n - 1:
        raise ValueError(f"j must lie in 2..{pi.n - 1}, got {j}")
    pos_j = pi.entries.index(j) + 1
    if kind is Kind.UP:
        high_pos = None
        for pos in range(pos_j + 1, pi.n + 1):
            val = pi.value_at(pos)
            if val > j and high_pos is None:
                high_pos = pos
            elif val < j and high_pos is not None:
                return (pos_j, high_pos, pos)
        return None
    high_pos = None
    for pos in range(1, pos_j):
        val = pi.value_at(pos)
        if val > j and high_pos is None:
            high_pos = pos
        elif val < j and high_pos is not None:
            return (high_pos, pos, pos_j)
    return None


def oracle_minimality_witness(pi, orientation):
    """minimality_witness as the loop it replaced: the first component of
    orientation.components (u ascending, then d) whose own scan finds a
    pattern, with that pattern's positions."""
    for kind, j in orientation.components:
        witness = oracle_pattern_witness(pi, j, kind)
        if witness is not None:
            return j, kind, witness
    return None


def oracle_product_accepts(orientation, word):
    """product_accepts by stepping the product tuple one letter at a time,
    stopping at the first death (dead is absorbing)."""
    orientation.require_degree(word.n, "word")
    rows = product_table(orientation.components, orientation.n)
    product = initial_product(orientation.components)
    for letter in word:
        product = step_alive(rows, product, letter)
        if product is None:
            return False
    return True


def oracle_generating_tree(orientation, priority=None):
    """generating_tree by enumeration: scan S_n, search each minimal
    permutation's lexmin word, and sort the words by length and priority."""
    n = orientation.n
    if priority is None:
        priority = PriorityOrder.natural(n)
    words = []
    for pi in all_permutations(n):
        if is_minimal(pi, orientation):
            word = lexmin_word(pi, orientation, priority)
            assert word is not None
            words.append(word)
    words.sort(key=lambda w: (len(w), tuple(priority.rank[l] for l in w)))
    node_set = set(words)
    for word in words:
        if len(word) and Word(word.letters[:-1], n) not in node_set:
            raise AssertionError(f"node set is not prefix-closed at {word}")
    entries = tuple(evaluate(word).entries for word in words)
    return GeneratingTree(tuple(word.letters for word in words), entries, orientation, priority)


def oracle_count_minimal_subsets(orientation):
    """count_minimal by a DP over the set of values already placed, the
    O(2^n) route the live-slot DP replaced.

    A permutation is written left to right.  Whether placing the value v
    next completes a forbidden subword depends only on the set S of values
    placed before it:
      - for j in u: if j is in S and v > j, then {1..j-1} must lie in S
        (else a later i < j completes jki);
      - for j in d: if j is not in S and S holds a value above j, then
        v > j (else the later j completes kij).
    ways[S | {v}] sums ways[S] over the allowed v, visiting only the sets
    some prefix reaches: O(2^n * (n + |u| + |d|)) time and O(2^n) space.
    """
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


def oracle_tree_edges(nodes):
    """(parent, child, last letter) for every non-root node of a tree, given
    its nodes' Words, the parent built as a Word: the GeneratingTree.edges
    the tree's stored entries replaced."""
    return tuple((Word(w.letters[:-1], w.n), w, w.letters[-1]) for w in nodes if len(w))


@functools.cache
def oracle_weak_order_hasse(n):
    """The weak-order covers (pi, pi * s_l, l) of S_n, each built by a validated
    right_multiply: the pairs the tree overlay draws, with their letters.
    Cached, since the tree oracle draws the overlay once per orientation and
    priority."""
    covers = []
    for pi in all_permutations(n):
        for letter in range(1, n):
            if pi.value_at(letter) < pi.value_at(letter + 1):
                covers.append((pi, right_multiply(pi, letter), letter))
    return tuple(covers)


# each permutation's one-line text, made the first time a drawing names it
oracle_name = functools.cache(str)


def oracle_export_tree_dot(tree, overlay=False):
    """export_tree_dot evaluating each node's word once, taking the covers and
    their letters from oracle_weak_order_hasse."""
    n = tree.n
    lines = ["digraph tree {", "  rankdir=BT;"]
    nodes = tree.nodes  # built once: each read of the property builds them again
    perm_of = {word: evaluate(word) for word in nodes}
    tree_perms = set(perm_of.values())
    tree_edges = {
        (perm_of[parent], perm_of[child], letter) for parent, child, letter in oracle_tree_edges(nodes)
    }

    if overlay:
        for pi in all_permutations(n):
            if pi in tree_perms:
                lines.append(f'  "{oracle_name(pi)}" [shape=box, style=bold];')
            else:
                lines.append(f'  "{oracle_name(pi)}" [shape=box, color=gray, fontcolor=gray];')
        edges = []
        for low, high, letter in oracle_weak_order_hasse(n):
            ends = f'"{oracle_name(low)}" -> "{oracle_name(high)}"'
            if (low, high, letter) in tree_edges:
                edges.append(f"  {ends} [color={edge_color(letter)}, penwidth=2];")
            else:
                edges.append(f"  {ends} [color=gray];")
        lines.extend(sorted(edges))
    else:
        for pi in sorted(tree_perms, key=lambda p: p.entries):
            lines.append(f'  "{oracle_name(pi)}" [shape=box];')
        edges = [
            f'  "{oracle_name(a)}" -> "{oracle_name(b)}" [color={edge_color(letter)}, penwidth=2];'
            for a, b, letter in sorted(
                tree_edges, key=lambda e: (e[0].entries, e[1].entries)
            )
        ]
        lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_node_name(kind, j, code):
    column, status = label(kind, j, code)
    return f"{'U' if kind is Kind.UP else 'D'}{j}_{column}_{status}"


def oracle_write_dot(graph, n, nodes, start, name, status, move):
    """The DOT writer that export_dot and export_dot_product shared when they
    decoded a state's name again for each node line and each edge end."""
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


def oracle_export_dot(kind, j, n):
    """export_dot naming each state by decoding its code where it is drawn."""
    tag = "U" if kind is Kind.UP else "D"
    return oracle_write_dot(
        f"{tag}{j}_n{n}", n, range(state_count(kind, j, n)), initial_state(kind, j, n),
        name=functools.partial(oracle_node_name, kind, j),
        status=lambda code: STATUSES[code % 3],
        move=functools.partial(step, table(kind, j, n)),
    )


def oracle_export_dot_product(orientation, reachable_only=False):
    """export_dot_product decoding each component's code again for every sort
    key, node line and edge end."""
    n = orientation.n
    parts = orientation.components
    move = functools.partial(step_product, product_table(parts, n))
    start = initial_product(parts)

    def product_sort_key(product):
        labels = (label(kind, j, code) for (kind, j), code in zip(parts, product))
        return tuple((column, status.value) for column, status in labels)

    def product_name(product):
        names = (oracle_node_name(kind, j, code) for (kind, j), code in zip(parts, product))
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
    return oracle_write_dot(
        f"{graph}_n{n}", n, nodes, start, name=product_name, status=classify, move=move
    )


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
        steppers = []
        for o in orientations:
            rows = product_table(o.components, n)
            steppers.append((o, functools.partial(step_product, rows), initial_product(o.components)))
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


def oracle_prefix_pass(n, priorities):
    """verify.prefix_pass on weak_order's own rows, before dead codes were
    merged: a component's dead code stays the one of the column it died in.
    Returns its two dicts, the least ranks per final vector and the dead-mask
    pairs, keyed by each permutation's entries."""
    rows, start, perms, covers = verify.weak_order(n)
    least = {perms[0].entries: {start: ((),) * len(priorities)}}
    pairs = {perms[0].entries: {(0, 0)}}
    for e, l, below in covers:
        ends, dead_pairs = least.setdefault(e, {}), pairs.setdefault(e, set())
        for vector, heads in least[below].items():
            stepped = step_product(rows, vector, l)
            dead_pairs.add((dead_mask(vector), dead_mask(stepped)))
            grown = tuple(head + (p.rank[l],) for head, p in zip(heads, priorities))
            ends[stepped] = tuple(map(min, ends.get(stepped, grown), grown))
    return least, pairs


def oracle_final_vectors(pi):
    """{final vector: count} of pi's reduced words, each stepped on its own
    through all 2(n-2) automata of its degree: what final_vectors reads off
    the weak order."""
    every = every_component(pi.n)
    advance = functools.partial(step_product, product_table(every, pi.n))
    finals = {}
    for word in all_reduced_words(pi):
        vector = functools.reduce(advance, word.letters, initial_product(every))
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
                    oracle_product_accepts(orientation, word),
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
