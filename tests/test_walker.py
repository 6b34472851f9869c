"""The left-descent walker and the greedy extractor against the recursive
definitions they replaced, which are kept here as oracles.

Every comparison is exhaustive over the stated degrees; nothing is sampled.
"""
import ast
import itertools
import os
import pathlib
import random

import pytest

from permutree.core import (
    Orientation,
    Permutation,
    Word,
    all_permutations,
    evaluate,
    is_left_inversion,
    is_minimal,
    iter_reduced_words,
    left_inversions,
    left_multiply,
    stack_sort,
)
from permutree.automata import (
    Status,
    classify,
    exists_accepted,
    initial_product,
    product_accepts,
    product_table,
    step_product,
)
from permutree.coxeter import all_coxeter_words, c_factorization
from permutree.sorting import PriorityOrder
from permutree.trees import lexmin_word
from permutree.verify import disjoint_orientations

SLOW_DEGREE = pytest.param(
    6, marks=pytest.mark.skipif(not os.environ.get("PERMUTREE_SLOW"), reason="set PERMUTREE_SLOW=1")
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "permutree"


# -- oracles: the recursive definitions -------------------------------------


def oracle_reduced_words(pi):
    def rec(p):
        descents = left_inversions(p)
        if not descents:
            yield ()
            return
        for letter in descents:
            for rest in rec(left_multiply(letter, p)):
                yield (letter,) + rest

    for seq in rec(pi):
        yield Word(seq, pi.n)


def oracle_exists_accepted(pi, orientation):
    rows = product_table(orientation)
    memo = {}

    def search(p, product):
        descents = left_inversions(p)
        if not descents:
            return True
        key = (p.entries, product)
        cached = memo.get(key)
        if cached is not None:
            return cached
        found = False
        for letter in descents:
            nxt = step_product(rows, product, letter)
            if classify(nxt) is Status.DEAD:
                continue
            if search(left_multiply(letter, p), nxt):
                found = True
                break
        memo[key] = found
        return found

    return search(pi, initial_product(orientation))


def oracle_lexmin_word(pi, orientation, priority):
    rows = product_table(orientation)

    def dfs(p, product):
        descents = left_inversions(p)
        if not descents:
            return ()
        for letter in sorted(descents, key=priority.key):
            nxt = step_product(rows, product, letter)
            if classify(nxt) is Status.DEAD:
                continue
            rest = dfs(left_multiply(letter, p), nxt)
            if rest is not None:
                return (letter,) + rest
        return None

    seq = dfs(pi, initial_product(orientation))
    return Word(seq, pi.n) if seq is not None else None


def oracle_c_factorization(pi, c):
    residual = pi
    blocks = []
    while not residual.is_identity():
        taken = set()
        for letter in c.word:
            if is_left_inversion(residual, letter):
                taken.add(letter)
                residual = left_multiply(letter, residual)
        blocks.append(frozenset(taken))
    return tuple(blocks)


def oracle_stack_sort(pi):
    def rec(seq):
        if not seq:
            return ()
        top = max(seq)
        cut = seq.index(top)
        return rec(seq[:cut]) + rec(seq[cut + 1 :]) + (top,)

    return Permutation(rec(pi.entries))


# -- exhaustive comparisons -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, SLOW_DEGREE])
def test_iter_reduced_words_matches_oracle_in_order(n):
    for pi in all_permutations(n):
        assert list(iter_reduced_words(pi)) == list(oracle_reduced_words(pi))


def all_orientations(n):
    """Every pair (u, d) of subsets of 2..n-1, disjoint or not."""
    values = range(2, n)
    subsets = [
        frozenset(s) for size in range(n - 1) for s in itertools.combinations(values, size)
    ]
    for u in subsets:
        for d in subsets:
            yield Orientation(u, d, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exists_accepted_matches_oracle(n):
    orientations = list(all_orientations(n))
    assert len(orientations) == 4 ** (n - 2)
    for pi in all_permutations(n):
        for orientation in orientations:
            got = exists_accepted(pi, orientation)
            assert got == oracle_exists_accepted(pi, orientation), (pi, orientation)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lexmin_word_matches_oracle(n):
    rng = random.Random(20261018 + n)
    priorities = [PriorityOrder.natural(n)] + [PriorityOrder.shuffled(n, rng) for _ in range(3)]
    orientations = list(disjoint_orientations(n))
    for priority in priorities:
        for orientation in orientations:
            for pi in all_permutations(n):
                want = oracle_lexmin_word(pi, orientation, priority)
                assert lexmin_word(pi, orientation, priority) == want, (pi, orientation, priority)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_c_factorization_matches_oracle(n):
    for c in all_coxeter_words(n):
        for pi in all_permutations(n):
            assert c_factorization(pi, c).blocks == oracle_c_factorization(pi, c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_stack_sort_matches_oracle(n):
    for pi in all_permutations(n):
        assert stack_sort(pi) == oracle_stack_sort(pi)


# -- depth beyond the recursion limit -----------------------------------------

W0_60 = Permutation(tuple(range(60, 0, -1)))
FULL_DOWN_60 = Orientation(frozenset(), frozenset(range(2, 60)), 60)


def test_first_reduced_word_of_a_long_permutation():
    word = next(iter_reduced_words(W0_60))
    assert len(word) == 60 * 59 // 2
    assert evaluate(word) == W0_60


def test_lexmin_word_of_a_long_permutation():
    # w0 contains no jki and no kij at all, so it is minimal for every orientation
    assert is_minimal(W0_60, FULL_DOWN_60)
    word = lexmin_word(W0_60, FULL_DOWN_60)
    assert len(word) == 60 * 59 // 2
    assert evaluate(word) == W0_60
    assert product_accepts(FULL_DOWN_60, word)


def test_exists_accepted_on_a_long_permutation():
    assert exists_accepted(W0_60, FULL_DOWN_60)


def test_stack_sort_of_a_long_permutation():
    assert stack_sort(Permutation(tuple(range(2000, 0, -1)))).is_identity()


def test_package_has_no_recursive_function():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    assert name != node.name, f"{path.name}: {node.name} calls itself"


# The modules that may enumerate every reduced word of a permutation: core
# defines the enumeration, and verify's brute-force routes are its callers.
ENUMERATING_MODULES = {"core.py", "verify.py"}


def test_only_the_brute_force_routes_enumerate_reduced_words():
    # any other search for an accepted expression walks the descent tree
    # with its automata instead (__init__.py only re-exports the names)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py" or path.name in ENUMERATING_MODULES:
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & {"all_reduced_words", "iter_reduced_words"}, path.name


# Library API kept on purpose although nothing in src/ calls it.
KEPT_WITHOUT_CALLER = {
    "length": "the Coxeter length of a Permutation; the tests' reducedness checks read it",
}


def test_package_has_no_dead_definition():
    # every public top-level function and class is named somewhere in src/
    # besides its own definition and __init__.py, and every public method is
    # read as an attribute (a local variable of the same name does not count)
    functions, methods, names, attributes = {}, {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                functions[node.name] = path.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            methods[item.name] = f"{path.name}: {node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    dead = {name: where for name, where in functions.items() if name not in names | attributes}
    dead.update((name, where) for name, where in methods.items() if name not in attributes)
    assert dead.keys() <= KEPT_WITHOUT_CALLER.keys(), dead
