import math
from collections import Counter

import pytest

from permutree import coxeter
from permutree.core import (
    Kind,
    Permutation,
    Word,
    all_permutations,
    left_multiply,
)
from permutree.automata import accepts
from permutree.coxeter import (
    CoxeterWord,
    all_coxeter_words,
    c_factorization,
    c_sorting_word,
    is_c_sortable,
    orientation_of,
)
from permutree.core import contains_pattern, stack_sort
from permutree.verify import catalan, check_csorting
from oracles import evaluate, identity, is_left_inversion, slow

P = Permutation.from_text


def test_coxeter_word_validation():
    CoxeterWord(Word((2, 1, 3), 4))
    with pytest.raises(ValueError):
        CoxeterWord(Word((1, 1, 3), 4))
    with pytest.raises(ValueError):
        CoxeterWord(Word((1, 2), 4))


def test_orientation_of():
    o = orientation_of(CoxeterWord(Word((2, 5, 4, 3, 1, 6), 7)))
    assert sorted(o.u) == [2, 4, 5] and sorted(o.d) == [3, 6]
    o = orientation_of(CoxeterWord(Word((1, 2, 3), 4)))
    assert not o.u and sorted(o.d) == [2, 3]
    o = orientation_of(CoxeterWord(Word((3, 2, 1), 4)))
    assert sorted(o.u) == [2, 3] and not o.d


def test_c_sorting_word_examples():
    c = CoxeterWord(Word((2, 1, 3), 4))
    word = c_sorting_word(P("4213"), c)
    assert word == Word((1, 3, 2, 1), 4)
    assert not accepts(Kind.UP, 2, word)
    assert not contains_pattern(P("4213"), 2, Kind.UP)
    assert c_sorting_word(identity(4), c) == Word((), 4)
    assert c_sorting_word(evaluate(c.word), c) == c.word


def oracle_greedy_subword(pi, template):
    """sorting.greedy_subword(pi, template, repeat=True) as it was, extraction inlined."""
    if template.n != pi.n:
        raise ValueError(f"template of degree {template.n} for a permutation of degree {pi.n}")
    missing = set(range(1, pi.n)) - set(template)
    if missing:
        raise ValueError(f"template must contain every generator, missing {sorted(missing)}")
    residual = pi
    letters = []
    while not residual.is_identity():
        taken = []
        for letter in template:
            if is_left_inversion(residual, letter):
                taken.append(letter)
                residual = left_multiply(letter, residual)
        if not taken:
            break
        letters.extend(taken)
    return Word(tuple(letters), pi.n) if residual.is_identity() else None


SLOW_6 = slow(6)


@pytest.mark.parametrize("n", [2, 3, 4, 5, SLOW_6])
def test_c_sorting_word_matches_oracle(n):
    for c in all_coxeter_words(n):
        for pi in all_permutations(n):
            assert c_sorting_word(pi, c) == oracle_greedy_subword(pi, c.word), (pi, c)


# c_factorization and is_c_sortable of the same input are cases of
# test_core.py::test_an_input_of_another_degree_is_refused_before_a_permutation_is_built
@pytest.mark.parametrize("extract", [c_sorting_word])
def test_coxeter_word_of_another_degree_is_refused(extract):
    with pytest.raises(ValueError, match="^template of degree 3 for a permutation of degree 4$"):
        extract(P("4213"), CoxeterWord(Word((2, 1), 3)))


def test_c_factorization():
    c = CoxeterWord(Word((2, 1, 3), 4))
    blocks = c_factorization(P("4213"), c)
    assert blocks == (frozenset({1, 3}), frozenset({1, 2}))
    assert c_factorization(identity(4), c) == ()
    assert c_factorization(evaluate(c.word), c) == (frozenset({1, 2, 3}),)


def test_factorization_concatenates_to_sorting_word():
    for c in all_coxeter_words(4):
        for pi in all_permutations(4):
            blocks = c_factorization(pi, c)
            rebuilt = [l for block in blocks for l in c.word if l in block]
            assert tuple(rebuilt) == c_sorting_word(pi, c).letters
            if blocks:
                assert blocks[-1]


def test_is_c_sortable():
    c = CoxeterWord(Word((2, 1, 3), 4))
    assert is_c_sortable(identity(4), c)
    assert not is_c_sortable(P("4213"), c)
    assert is_c_sortable(evaluate(c.word), c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sorting_word_recursion(n):
    # peeling the first letter of c: take it when it shortens pi, rotate it
    # to the back either way
    for c in all_coxeter_words(n):
        first, rest = c.word.letters[0], c.word.letters[1:]
        rotated = CoxeterWord(Word(rest + (first,), n))
        for pi in all_permutations(n):
            if is_left_inversion(pi, first):
                expected = (first,) + c_sorting_word(left_multiply(first, pi), rotated).letters
            else:
                expected = c_sorting_word(pi, rotated).letters
            assert c_sorting_word(pi, c).letters == expected


@pytest.mark.parametrize("n", [3, 4])
def test_letter_order_in_sorting_words(n):
    # for a sortable permutation, letters first appear in the order they
    # appear in c
    for c in all_coxeter_words(n):
        rank = {letter: i for i, letter in enumerate(c.word)}
        for pi in all_permutations(n):
            if not is_c_sortable(pi, c):
                continue
            word = c_sorting_word(pi, c)
            firsts = {}
            for idx, letter in enumerate(word):
                firsts.setdefault(letter, idx)
            for a in firsts:
                for b in firsts:
                    if rank[a] < rank[b]:
                        assert firsts[a] < firsts[b]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_equivalences_and_catalan_counts(n):
    # the suite reports every disagreement of the five conditions and every
    # word whose sortable count is not Catalan
    assert check_csorting(n) == []
    words = list(all_coxeter_words(n))
    assert len(words) == math.factorial(n - 1)
    for c in words:
        assert sum(is_c_sortable(pi, c) for pi in all_permutations(n)) == catalan(n)


def test_equivalences_extract_once_per_permutation_and_word(monkeypatch):
    # conditions 1 and 2 read the same greedy extraction
    calls = Counter()
    extract = coxeter._greedy_extract

    def counting(pi, template):
        calls[pi, template] += 1
        return extract(pi, template)

    monkeypatch.setattr(coxeter, "_greedy_extract", counting)
    check_csorting(4)
    want = Counter(
        (pi, c.word) for n in (2, 3, 4) for c in all_coxeter_words(n) for pi in all_permutations(n)
    )
    # the worked fact about 4213 extracts its sorting word once more
    want[P("4213"), Word((2, 1, 3), 4)] += 1
    assert calls == want


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decreasing_staircase_matches_stack_sorting(n):
    c = CoxeterWord(Word(tuple(range(n - 1, 0, -1)), n))
    for pi in all_permutations(n):
        assert is_c_sortable(pi, c) == stack_sort(pi).is_identity()


def test_sortability_of_the_two_boundary_avoiders():
    # 41352 contains both subword kinds at 3, so no orientation clears it;
    # 41325 contains only down subwords, so words placing s3, s2, s1 in that
    # relative order sort it
    sortable_for = lambda pi: [c for c in all_coxeter_words(5) if is_c_sortable(pi, c)]
    assert sortable_for(P("41352")) == []
    good = sortable_for(P("41325"))
    assert len(good) == 4
    for c in good:
        pos = {letter: i for i, letter in enumerate(c.word)}
        assert pos[3] < pos[2] < pos[1]
