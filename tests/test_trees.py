import json
import math
import pathlib
import random
import re

import pytest

from permutree import cli, trees
from permutree.core import (
    Orientation,
    Permutation,
    Word,
    all_permutations,
    all_reduced_words,
)
from permutree.automata import product_accepts, step_alive
from permutree.sorting import PriorityOrder, is_minimal
from permutree.trees import (
    count_minimal,
    export_tree_dot,
    generating_tree,
    generating_trees,
    lexmin_word,
)
from permutree.verify import disjoint_orientations
from oracles import (
    PACKAGE_MODULES,
    assert_same_text,
    congruence_classes,
    evaluate,
    identity,
    oracle_count_minimal_subsets,
    oracle_export_tree_dot,
    oracle_generating_tree,
    oracle_tree_edges,
    refuse_everywhere,
    right_multiply,
    slow,
    word_from_text,
)

P = Permutation.from_text
GOLDEN = pathlib.Path(__file__).parent / "golden"

# Hand-derived generating trees for S_4 over the weak order, written as
# (parent permutation, child permutation, letter of the appended generator).
TREE_N4_U2_EDGES = {
    ("1234", "2134", 1), ("1234", "1324", 2), ("1234", "1243", 3),
    ("2134", "2143", 3), ("1324", "3124", 1), ("1324", "1342", 3),
    ("1243", "1423", 2), ("3124", "3214", 2), ("3124", "3142", 3),
    ("1342", "1432", 2), ("1423", "4123", 1), ("3142", "3412", 2),
    ("4123", "4213", 2), ("1432", "4132", 1), ("3412", "4312", 1),
    ("3412", "3421", 3), ("4312", "4321", 3),
}

TREE_N4_D2_EDGES = {
    ("1234", "2134", 1), ("1234", "1324", 2), ("1234", "1243", 3),
    ("2134", "2314", 2), ("2134", "2143", 3), ("1324", "1342", 3),
    ("1243", "1423", 2), ("2314", "3214", 1), ("2314", "2341", 3),
    ("2143", "2413", 2), ("1342", "1432", 2), ("3214", "3241", 3),
    ("2341", "2431", 2), ("2413", "4213", 1), ("3241", "3421", 2),
    ("2431", "4231", 1), ("3421", "4321", 1),
}

TREE_N4_U23_EDGES = {
    ("1234", "2134", 1), ("1234", "1324", 2), ("1234", "1243", 3),
    ("2134", "2143", 3), ("1324", "3124", 1), ("1243", "1423", 2),
    ("3124", "3214", 2), ("1423", "4123", 1), ("1423", "1432", 3),
    ("4123", "4213", 2), ("4123", "4132", 3), ("4132", "4312", 2),
    ("4312", "4321", 3),
}


def tree_edge_set(tree):
    return {
        (str(evaluate(parent)), str(evaluate(child)), letter)
        for parent, child, letter in oracle_tree_edges(tree.nodes)
    }


def test_lexmin_word_examples():
    for n, j in [(4, 2), (4, 3), (5, 3)]:
        pi = evaluate(Word((j - 1, j, j - 1), n))
        word = lexmin_word(pi, Orientation({j}, frozenset(), n))
        assert word == Word((j, j - 1, j), n)
    assert lexmin_word(identity(4), Orientation({2}, {3}, 4)) == Word((), 4)
    assert lexmin_word(P("4231"), Orientation({2}, frozenset(), 4)) is None


def test_lexmin_word_matches_enumeration():
    # oracle: filter the full reduced-word set and take the least
    priority = PriorityOrder.natural(4)
    for pi in all_permutations(4):
        for orientation in [
            Orientation({2}, frozenset(), 4),
            Orientation({2}, {3}, 4),
            Orientation({2, 3}, frozenset(), 4),
        ]:
            accepted = [
                w
                for w in all_reduced_words(pi)
                if product_accepts(orientation, w)
            ]
            expected = (
                min(accepted, key=lambda w: tuple(priority.rank[l] for l in w))
                if accepted
                else None
            )
            assert lexmin_word(pi, orientation, priority) == expected


def test_lexmin_word_respects_priority():
    pi = P("4321")
    natural = lexmin_word(pi, Orientation({2}, frozenset(), 4))
    flipped = lexmin_word(pi, Orientation({2}, frozenset(), 4), PriorityOrder((3, 2, 1)))
    assert natural != flipped
    assert evaluate(natural) == evaluate(flipped) == pi


@pytest.mark.parametrize("order", [(1,), (1, 2, 3)])
def test_searches_refuse_a_priority_of_another_degree(order):
    # with a priority of degree 2 on S_3, lexmin_word missed the word of the
    # minimal 321 and the tree had 2 of its 6 nodes; one of degree 4 raised
    # IndexError from the tree
    orientation = Orientation(frozenset(), frozenset(), 3)
    priority = PriorityOrder(order)
    degree = len(order) + 1
    for pi in (P("321"), P("123")):
        with pytest.raises(ValueError, match=f"priority of degree {degree} for a permutation of degree 3"):
            lexmin_word(pi, orientation, priority)
    with pytest.raises(ValueError, match=f"priority of degree {degree} for an orientation of degree 3"):
        generating_tree(orientation, priority)


def test_lexmin_word_refuses_an_orientation_of_another_degree():
    # under a degree-3 orientation, lexmin_word of 4321 raised IndexError
    for pi in (P("4321"), P("1234")):
        with pytest.raises(ValueError, match="orientation of degree 3 for a permutation of degree 4"):
            lexmin_word(pi, Orientation({2}, frozenset(), 3))


def test_generating_tree_golden_u2():
    tree = generating_tree(Orientation({2}, frozenset(), 4))
    assert len(tree.nodes) == 18
    assert tree_edge_set(tree) == TREE_N4_U2_EDGES


def test_generating_tree_golden_d2():
    tree = generating_tree(Orientation(frozenset(), {2}, 4))
    assert len(tree.nodes) == 18
    assert tree_edge_set(tree) == TREE_N4_D2_EDGES


def test_generating_tree_golden_u23():
    tree = generating_tree(Orientation({2, 3}, frozenset(), 4))
    assert len(tree.nodes) == 14
    assert tree_edge_set(tree) == TREE_N4_U23_EDGES


def test_generating_tree_free_orientation():
    for n in (2, 3, 4):
        tree = generating_tree(Orientation(frozenset(), frozenset(), n))
        count = 1
        for i in range(2, n + 1):
            count *= i
        assert len(tree.nodes) == count


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tree_nodes_biject_with_minimal_permutations(n):
    for orientation in disjoint_orientations(n):
        tree = generating_tree(orientation)
        nodes = tree.nodes
        perms = {evaluate(w) for w in nodes}
        assert len(perms) == len(nodes)
        assert perms == {pi for pi in all_permutations(n) if is_minimal(pi, orientation)}
        assert len(nodes) == count_minimal(orientation)
        # every edge is a length-increasing right multiplication
        for parent, child, letter in oracle_tree_edges(nodes):
            low, high = evaluate(parent), evaluate(child)
            assert high.length() == low.length() + 1
            assert low.value_at(letter) < low.value_at(letter + 1)


def test_node_set_is_priority_independent():
    orientation = Orientation({2}, {4}, 5)
    base = {evaluate(w) for w in generating_tree(orientation).nodes}
    for order in [(4, 3, 2, 1), (2, 4, 1, 3)]:
        other = generating_tree(orientation, PriorityOrder(order))
        assert {evaluate(w) for w in other.nodes} == base


def test_overlay_draws_every_weak_order_cover():
    # n!(n-1)/2 covers, each from pi to pi * s_l for an ascent l of pi
    edge = re.compile(r'  "(\d+)" -> "(\d+)" ')
    for n, count in [(1, 0), (2, 1), (3, 6), (4, 36), (5, 240)]:
        tree = generating_tree(Orientation(frozenset(), frozenset(), n))
        covers = edge.findall(export_tree_dot(tree, overlay=True))
        assert len(covers) == count == math.factorial(n) * (n - 1) // 2
        for low, high in covers:
            low, high = P(low), P(high)
            l = next(l for l in range(1, n) if low.value_at(l) != high.value_at(l))
            assert high == right_multiply(low, l)
            assert low.value_at(l) < low.value_at(l + 1)
            assert high.length() == low.length() + 1


def test_count_minimal_examples():
    assert count_minimal(Orientation({2, 3}, frozenset(), 4)) == 14
    assert count_minimal(Orientation(frozenset(), frozenset(), 4)) == 24
    assert count_minimal(Orientation({2}, frozenset(), 4)) == 18


def oracle_count_minimal(orientation):
    """count_minimal by enumeration: scan S_n, test each permutation."""
    return sum(1 for pi in all_permutations(orientation.n) if is_minimal(pi, orientation))


SLOW_DEGREE = slow(7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, SLOW_DEGREE])
def test_count_minimal_matches_enumeration(n):
    for orientation in disjoint_orientations(n):
        assert count_minimal(orientation) == oracle_count_minimal(orientation), orientation


@pytest.mark.parametrize("n", [*range(1, 10), slow(10)])
def test_count_minimal_matches_the_subset_dp(n):
    for orientation in disjoint_orientations(n):
        assert count_minimal(orientation) == oracle_count_minimal_subsets(orientation), orientation


@pytest.mark.parametrize("n", range(1, 9))
def test_count_minimal_depends_only_on_the_decorated_values(n):
    for orientation in disjoint_orientations(n):
        all_up = Orientation(orientation.u | orientation.d, frozenset(), n)
        assert count_minimal(orientation) == count_minimal(all_up), orientation


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, slow(6)])
def test_congruence_classes_each_hold_one_minimal_permutation(n):
    # a route to minimality and to the count through neither automata nor
    # pattern masks: each class of the (u, d)-permutree congruence holds
    # exactly one minimal permutation, its unique shortest element, so the
    # classes number count_minimal
    for orientation in disjoint_orientations(n):
        classes = congruence_classes(orientation.u, orientation.d, n)
        for members in classes:
            minimal = [pi for pi in members if is_minimal(pi, orientation)]
            shortest = min(pi.length() for pi in members)
            assert len(minimal) == 1, (orientation, members)
            assert [pi for pi in members if pi.length() == shortest] == minimal, (orientation, members)
        assert len(classes) == count_minimal(orientation), orientation


def test_count_minimal_enumerates_nothing(monkeypatch):
    refuse_everywhere(monkeypatch, "is_minimal", "all_permutations")
    assert count_minimal(Orientation(frozenset(), frozenset(), 9)) == math.factorial(9)
    assert count_minimal(Orientation({2, 5}, {7}, 9)) == 45_036


def test_count_minimal_refuses_overlapping_sets():
    # the Orientation refuses the sets before the count is reached
    with pytest.raises(ValueError, match="disjoint"):
        count_minimal(Orientation({2}, {2}, 4))


def test_generating_tree_searches_nothing(monkeypatch):
    # grown from the identity by product steps: no scan of S_n, no minimality
    # test and no search over reduced words
    refuse_everywhere(monkeypatch, "is_minimal", "lexmin_word", "walk_reduced_words", "all_permutations")
    for orientation in [Orientation({2, 5}, {7}, 8), Orientation(frozenset(range(2, 8)), frozenset(), 8)]:
        tree = generating_tree(orientation, PriorityOrder((4, 5, 2, 6, 1, 7, 3)))
        assert len(tree.nodes) == count_minimal(orientation)


def test_tree_outputs_evaluate_nothing(monkeypatch, capsys):
    # every node keeps its entries and its letters, and --overlay builds S_n
    # unvalidated, so no output of tree evaluates a word, validates a
    # permutation or builds a Word; the package has no evaluate left to call
    base = ("tree", "--n", "6", "--u=3,5", "--d=", "--priority=5,2,4,3,1")
    forms = [(), ("--overlay",), ("--output", "json")]
    expected = []
    for extra in forms:
        assert cli.main([*base, *extra]) == 0
        expected.append(capsys.readouterr().out)
    assert not any("evaluate" in vars(module) for module in PACKAGE_MODULES)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.__post_init__ must not be called")

    monkeypatch.setattr(Permutation, "__post_init__", refuse)
    monkeypatch.setattr(Word, "__post_init__", refuse)
    for extra, want in zip(forms, expected):
        assert cli.main([*base, *extra]) == 0
        assert capsys.readouterr().out == want


# generating_tree and export_tree_dot are compared with the bodies they
# replaced, on every disjoint orientation, under the natural priority and
# TREE_SHUFFLES seeded ones
TREE_SHUFFLES = 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, SLOW_DEGREE])
def test_generating_tree_matches_oracle(n):
    rng = random.Random(n)
    priorities = [PriorityOrder.natural(n)] + [
        PriorityOrder.shuffled(n, rng) for _ in range(TREE_SHUFFLES)
    ]
    for orientation in disjoint_orientations(n):
        # one call grows all four: the first by product steps, the rest over its notes
        for priority, tree in zip(priorities, generating_trees(orientation, priorities)):
            expected = oracle_generating_tree(orientation, priority)
            assert tree == expected, (orientation, priority)
            assert tree.to_json() == expected.to_json()
            assert export_tree_dot(tree) == oracle_export_tree_dot(expected)
            assert export_tree_dot(tree, overlay=True) == oracle_export_tree_dot(expected, overlay=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, SLOW_DEGREE])
def test_generating_trees_match_the_tree_of_each_priority_alone(n):
    # a priority that follows the first grows its tree over the first one's
    # notes, with no product step: it equals the tree it grows alone, with
    # each of the four priorities in turn taking the first, stepping, place
    rng = random.Random(n)
    priorities = [PriorityOrder.natural(n)] + [
        PriorityOrder.shuffled(n, rng) for _ in range(TREE_SHUFFLES)
    ]
    for orientation in disjoint_orientations(n):
        alone = [generating_trees(orientation, [priority])[0] for priority in priorities]
        for turn in range(len(priorities)):
            together = generating_trees(orientation, priorities[turn:] + priorities[:turn])
            assert together == alone[turn:] + alone[:turn], (orientation, turn)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, SLOW_DEGREE])
def test_generating_trees_step_each_state_letter_pair_once(monkeypatch, n):
    # nodes share product states, so one generating_trees call steps each
    # distinct (state, letter) once, however many (node, ascent) pairs reach it
    rng = random.Random(n)
    priorities = [PriorityOrder.natural(n), PriorityOrder.shuffled(n, rng)]
    stepped = []

    def counted(rows, state, letter):
        stepped.append((state, letter))
        return step_alive(rows, state, letter)

    monkeypatch.setattr(trees, "step_alive", counted)
    for orientation in disjoint_orientations(n):
        stepped.clear()
        generating_trees(orientation, priorities)
        assert stepped and len(stepped) == len(set(stepped)), orientation


def test_heavy_tail_tree_matches_oracle():
    # the case whose lexmin_word searches took longest when the tree was a scan
    orientation = Orientation({5, 6}, frozenset(), 7)
    priority = PriorityOrder((4, 5, 2, 6, 1, 3))
    tree = generating_tree(orientation, priority)
    assert tree == oracle_generating_tree(orientation, priority)
    assert len(tree.nodes) == count_minimal(orientation)


def test_tree_dot_past_single_digits_matches_oracle():
    # from n = 10 on, names are space-separated and text order is not entries
    # order ("10 9 ..." sorts before "2 1 ..."): nodes and edges keep entries order
    n = 10
    tree = generating_tree(Orientation(set(range(2, n, 2)), set(range(3, n, 2)), n))
    assert len(tree.nodes) == 16796
    assert_same_text(export_tree_dot(tree), oracle_export_tree_dot(tree))


def test_tree_json_dump():
    tree = generating_tree(Orientation({2}, frozenset(), 3))
    payload = json.loads(tree.to_json())
    assert payload[""] == "123"
    assert all(str(evaluate(word_from_text(k, 3))) == v for k, v in payload.items())


@pytest.mark.parametrize(
    "name, u, d, overlay",
    [
        ("tree_n4_u2.dot", {2}, set(), True),
        ("tree_n4_u23.dot", {2, 3}, set(), True),
        ("tree_n2.dot", set(), set(), False),
    ],
)
def test_tree_dot_golden_files(name, u, d, overlay):
    n = 4 if "n4" in name else 2
    tree = generating_tree(Orientation(frozenset(u), frozenset(d), n))
    dot = export_tree_dot(tree, overlay)
    assert dot == (GOLDEN / name).read_text()


def test_tree_dot_without_overlay_lists_only_tree_nodes():
    tree = generating_tree(Orientation(frozenset(), frozenset(), 2))
    dot = export_tree_dot(tree)
    assert dot.count("shape=box") == 2
    assert "->" in dot
