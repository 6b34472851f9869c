"""The left-descent walker and the greedy extractor against the definitions
they replaced, which are kept here as oracles: the recursive ones, and the
Permutation-stepping bodies that the Residual-stepping loops replaced.

Every comparison is exhaustive over the stated degrees; nothing is sampled.
"""
import ast
import collections
import functools
import itertools
import pathlib
import random

import pytest

from permutree import automata, core, coxeter, sorting, trees, verify
from permutree.core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_permutations,
    is_minimal,
    iter_reduced_words,
    left_inversions,
    left_multiply,
    stack_sort,
    walk_reduced_words,
)
from permutree.automata import (
    Status,
    accepts,
    classify,
    exists_accepted,
    initial_product,
    product_accepts,
    product_table,
    step_alive,
    step_product,
)
from permutree.coxeter import all_coxeter_words, c_factorization, c_sorting_word
from permutree.sorting import PriorityOrder, _greedy_extract
from permutree.trees import lexmin_word
from permutree.verify import disjoint_orientations
from oracles import all_orientations, evaluate, is_left_inversion, slow

SLOW_DEGREE = slow(6)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "permutree"


# -- oracles: the replaced definitions ----------------------------------------


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


def oracle_walk_reduced_words(pi, key=None, state=(), advance=None):
    """walk_reduced_words as it was, stepping through validated Permutations."""

    def frame(p, s):
        descents = left_inversions(p)
        if not descents:
            return None
        return [p, s, iter(descents if key is None else sorted(descents, key=key)), yields]

    yields = 0
    root = frame(pi, state)
    if root is None:
        yield ()
        return
    failed = set()
    path = []
    stack = [root]
    while True:
        p, current, todo, before = stack[-1]
        for letter in todo:
            nxt = current if advance is None else advance(current, letter)
            if nxt is None:
                continue
            child = left_multiply(letter, p)
            if failed and (child.entries, nxt) in failed:
                continue
            below = frame(child, nxt)
            if below is None:
                yields += 1
                yield (*path, letter)
                continue
            path.append(letter)
            stack.append(below)
            break
        else:
            stack.pop()
            if not stack:
                return
            path.pop()
            if yields == before:
                failed.add((p.entries, current))


def oracle_greedy_extract(pi, template):
    """sorting._greedy_extract as it was, stepping through validated Permutations."""
    if template.n != pi.n:
        raise ValueError(f"template of degree {template.n} for a permutation of degree {pi.n}")
    residual = pi
    passes = []
    while not residual.is_identity():
        taken = []
        for letter in template:
            if is_left_inversion(residual, letter):
                taken.append(letter)
                residual = left_multiply(letter, residual)
        if not taken:
            break
        passes.append(tuple(taken))
    return passes, residual


def oracle_exists_accepted(pi, orientation):
    rows = product_table(orientation.components, pi.n)
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

    return search(pi, initial_product(orientation.components))


def oracle_lexmin_word(pi, orientation, priority):
    rows = product_table(orientation.components, pi.n)

    def dfs(p, product):
        descents = left_inversions(p)
        if not descents:
            return ()
        for letter in sorted(descents, key=priority.rank.__getitem__):
            nxt = step_product(rows, product, letter)
            if classify(nxt) is Status.DEAD:
                continue
            rest = dfs(left_multiply(letter, p), nxt)
            if rest is not None:
                return (letter,) + rest
        return None

    seq = dfs(pi, initial_product(orientation.components))
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exists_accepted_matches_oracle(n):
    orientations = list(disjoint_orientations(n))
    assert len(orientations) == 3 ** (n - 2)
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
            assert c_factorization(pi, c) == oracle_c_factorization(pi, c)


def walker_arguments(components, n):
    """(state, advance) that thread the product state of the degree-n automata
    components (an orientation's, or any list of them) along a walk."""
    return initial_product(components), functools.partial(step_alive, product_table(components, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, SLOW_DEGREE])
def test_walk_reduced_words_matches_oracle_with_priorities(n):
    rng = random.Random(20261018 + n)
    priorities = [PriorityOrder.natural(n)] + [PriorityOrder.shuffled(n, rng) for _ in range(3)]
    perms = list(all_permutations(n))
    for orientation in disjoint_orientations(n):
        state, advance = walker_arguments(orientation.components, n)
        for priority in priorities:
            for pi in perms:
                got = list(walk_reduced_words(pi, priority, state, advance))
                want = list(oracle_walk_reduced_words(pi, priority.rank.__getitem__, state, advance))
                assert got == want, (pi, orientation, priority)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_reduced_words_matches_oracle_on_every_orientation(n):
    # every component list, overlapping u and d included, where the automata's
    # verdict is not the pattern masks'
    perms = list(all_permutations(n))
    for components in all_orientations(n):
        state, advance = walker_arguments(components, n)
        for pi in perms:
            got = list(walk_reduced_words(pi, state=state, advance=advance))
            want = list(oracle_walk_reduced_words(pi, state=state, advance=advance))
            assert got == want, (pi, components)


@functools.lru_cache(maxsize=None)
def oracle_accepting_automata(pi):
    """Each reduced word of pi with the set of its degree's automata (kind, j)
    that accept it."""
    machines = [(kind, j) for kind in Kind for j in range(2, pi.n)]
    return [
        (word.letters, {(kind, j) for kind, j in machines if accepts(kind, j, word)})
        for word in oracle_reduced_words(pi)
    ]


def memo_free_walk(pi, components, priority):
    """The accepted reduced words of pi in the walk's order, with no memo: every
    reduced word whose product steps stay alive at every prefix, sorted by the
    priority's ranks.  Dead is absorbing, so that is every word that each of
    the automata components accepts."""
    components = set(components)
    verdicts = oracle_accepting_automata(pi)
    words = [letters for letters, accepting in verdicts if components <= accepting]
    return sorted(words, key=lambda letters: [priority.rank[l] for l in letters])


def reference_priorities(n, which):
    """Every order of the letters, the natural one, or it and three seeded shuffles."""
    if which == "every":
        return [PriorityOrder(order) for order in itertools.permutations(range(1, n))]
    rng = random.Random(20261018 + n)
    shuffled = [PriorityOrder.shuffled(n, rng) for _ in range(3 if which == "seeded" else 0)]
    return [PriorityOrder.natural(n)] + shuffled


@pytest.mark.parametrize(
    "n, which",
    [(1, "every"), (2, "every"), (3, "every"), (4, "every"), (5, "natural"), slow(5, "seeded")],
)
def test_walk_reduced_words_matches_memo_free_reference(n, which):
    # pins the memo's key: a state that led nowhere is skipped wherever met again,
    # on every component list, overlapping u and d included
    perms = list(all_permutations(n))
    for components in all_orientations(n):
        state, advance = walker_arguments(components, n)
        for priority in reference_priorities(n, which):
            for pi in perms:
                got = list(walk_reduced_words(pi, priority, state, advance))
                assert got == memo_free_walk(pi, components, priority), (pi, components, priority)


@pytest.mark.parametrize("n", [SLOW_DEGREE])
def test_first_words_match_entries_keyed_walk_on_every_orientation(n):
    # the oracle walk keys its memo on (entries, state), which is exact; the
    # component lists of orientations also ask exists_accepted
    perms = list(all_permutations(n))
    orientations = {o.components: o for o in disjoint_orientations(n)}
    for components in all_orientations(n):
        state, advance = walker_arguments(components, n)
        orientation = orientations.get(components)
        for pi in perms:
            want = next(oracle_walk_reduced_words(pi, state=state, advance=advance), None)
            assert next(walk_reduced_words(pi, state=state, advance=advance), None) == want
            if orientation is not None:
                assert exists_accepted(pi, orientation) == (want is not None), (pi, orientation)


def greedy_templates(n):
    """Every Coxeter word of S_n, and each with one generator left out."""
    for c in all_coxeter_words(n):
        yield c.word
        for dropped in range(len(c.word)):
            yield Word(c.word.letters[:dropped] + c.word.letters[dropped + 1 :], n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_greedy_extract_matches_oracle(n):
    perms = list(all_permutations(n))
    stuck = 0
    for template in greedy_templates(n):
        for pi in perms:
            got = _greedy_extract(pi, template)
            assert got == oracle_greedy_extract(pi, template), (pi, template)
            stuck += not got[1].is_identity()
    # a template missing a generator leaves some residual unsorted
    assert stuck > 0 or n <= 1


def test_greedy_extract_matches_oracle_on_the_reduced_words_of_w0():
    # 54321 has 768 reduced words, each a template holding every generator
    perms = list(all_permutations(5))
    templates = list(iter_reduced_words(Permutation((5, 4, 3, 2, 1))))
    assert len(templates) == 768
    for template in templates:
        for pi in perms:
            assert _greedy_extract(pi, template) == oracle_greedy_extract(pi, template)


# The names whose calls the guard counts, besides Permutation.__post_init__.
SLOW_PATH = ("left_multiply", "left_inversions")


@pytest.fixture
def slow_path_calls(monkeypatch):
    """Count Permutation constructions and calls of the slow-path helpers,
    wherever a package module bound them."""
    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Permutation, "__post_init__", counted("Permutation", Permutation.__post_init__))
    for name in SLOW_PATH:
        original = getattr(core, name)
        wrapper = counted(name, original)
        for module in (core, automata, sorting, coxeter, trees, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_walker_and_extractor_stay_off_the_slow_path(slow_path_calls):
    w0 = Permutation((5, 4, 3, 2, 1))
    perms = list(all_permutations(5))
    words = list(all_coxeter_words(5))
    slow_path_calls.clear()
    assert len(list(iter_reduced_words(w0))) == 768
    assert slow_path_calls["Permutation"] <= 1
    assert not any(slow_path_calls[name] for name in SLOW_PATH), slow_path_calls
    for c in words:
        for pi in perms:
            slow_path_calls.clear()
            c_sorting_word(pi, c)
            assert slow_path_calls["Permutation"] <= 1, (pi, c)
            assert not any(slow_path_calls[name] for name in SLOW_PATH), (pi, c, slow_path_calls)


def test_sorts_stay_off_the_slow_path(slow_path_calls):
    # a sort keeps its decisions and builds one Permutation, its result
    kinds = (core.Kind.UP, core.Kind.DOWN)
    sorts = [(sorting.permutree_sort, orientation) for orientation in disjoint_orientations(5)]
    sorts += [(sorting.sort_single, j, kind) for j in range(2, 5) for kind in kinds]
    for pi in all_permutations(5):
        for sort, *args in sorts:
            slow_path_calls.clear()
            sort(pi, *args)
            assert slow_path_calls["Permutation"] <= 1, (pi, args)
            assert not any(slow_path_calls[name] for name in SLOW_PATH), (pi, args, slow_path_calls)


def test_slow_path_guard_counts(slow_path_calls):
    # the guard itself sees a construction and a call of each helper
    pi = Permutation((2, 1, 3))
    core.left_multiply(1, pi)
    core.left_inversions(pi)
    assert slow_path_calls == {"Permutation": 2, "left_multiply": 1, "left_inversions": 1}


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


# A count of Residual.take calls, not a time, bounds the searches below; the
# walk takes 66,903 letters per search on w0 with u = {2} and 13,311 with
# u = {30}, d = {31}.
TAKE_BUDGET = 200_000


@pytest.fixture
def take_budget(monkeypatch):
    """Make Residual.take raise once called more than TAKE_BUDGET times;
    clear() the returned counter to start a new budget."""
    calls = collections.Counter()
    take = core.Residual.take

    def counted(self, letter):
        calls["take"] += 1
        if calls["take"] > TAKE_BUDGET:
            raise AssertionError(f"Residual.take called more than {TAKE_BUDGET:,} times")
        return take(self, letter)

    monkeypatch.setattr(core.Residual, "take", counted)
    return calls


@pytest.mark.parametrize("u, d", [({2}, set()), ({30}, {31})])
def test_searches_on_a_long_permutation_stay_within_a_work_bound(take_budget, u, d):
    # few components: the walk meets few product states, however long pi is
    orientation = Orientation(u, d, 60)
    word = lexmin_word(W0_60, orientation)
    assert len(word) == 60 * 59 // 2 and take_budget["take"] > 0
    assert evaluate(word) == W0_60
    assert product_accepts(orientation, word)
    take_budget.clear()
    assert exists_accepted(W0_60, orientation)


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
# defines the enumeration, and verify's networks suite, which needs the words
# themselves, and its prefix suite, which names each word that fails a check,
# are its only callers.
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


# Definitions kept on purpose although nothing in src/ calls them, with the reason.
KEPT_WITHOUT_CALLER: dict[str, str] = {
    "left_multiply": "perfbench/worker.py reads its traced call count "
    "(core.left_multiply.calls); delete with the next benchmark refresh",
    "left_inversions": "perfbench/worker.py reads its traced call count "
    "(core.left_inversions.calls); delete with the next benchmark refresh",
    "exists_accepted": "perfbench/worker.py reads its traced call count "
    "(automata.exists_accepted.calls); the product-state-pruned search the walker oracle "
    "tests and the final-state suite oracles compare against",
    "lexmin_word": "the public search for one lexmin word; perfbench/worker.py reads "
    "its traced call count (trees.lexmin_word.calls); move to tests/oracles.py with the next "
    "benchmark refresh",
}


def test_package_has_no_dead_definition():
    # every top-level function and class, private ones included, is named
    # somewhere in src/ besides its own definition and __init__.py, and every
    # method is read as an attribute (a local variable of the same name does
    # not count); dunders are called by the language, so they are left out
    def dunder(name):
        return name.startswith("__") and name.endswith("__")

    functions, methods, names, attributes = {}, {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not dunder(node.name):
                functions[node.name] = path.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not dunder(item.name):
                            methods[item.name] = f"{path.name}: {node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    dead = {name: where for name, where in functions.items() if name not in names | attributes}
    dead.update((name, where) for name, where in methods.items() if name not in attributes)
    assert dead.keys() <= KEPT_WITHOUT_CALLER.keys(), dead


# Private names one module may import from another, with the reason.
PRIVATE_IMPORTS: dict[tuple[str, str], str] = {
    ("coxeter.py", "_greedy_extract"): "perfbench/tracer.py binds sorting._greedy_extract "
    "in its PRIVATE list; make it public or fold it in once cProfile replaces the tracer",
}


def test_no_module_imports_another_modules_private_name():
    # a name with a leading underscore stays inside its module: each
    # `from .module import ...` in src/ names public definitions only
    imported = {
        (path.name, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported <= PRIVATE_IMPORTS.keys(), imported - PRIVATE_IMPORTS.keys()
