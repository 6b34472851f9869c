"""
Coxeter elements as explicit words and the greedy c-factorization.

A Coxeter word lists each generator exactly once.  Everything here depends
on the word, not just the group element it evaluates to, so the word is
carried around explicitly and group-element equality is never used.  The
csorting suite in verify checks that c-sortability, read off the
factorization, agrees with four automaton and subword characterizations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import Orientation, Permutation, Word
from .sorting import _greedy_extract


@dataclass(frozen=True)
class CoxeterWord:
    """A word containing each generator index 1..n-1 exactly once."""

    word: Word

    def __post_init__(self):
        letters = self.word.letters
        if sorted(letters) != list(range(1, self.word.n)):
            raise ValueError(
                f"a Coxeter word must use each of 1..{self.word.n - 1} once, got {letters!r}"
            )

    @property
    def n(self) -> int:
        return self.word.n

    def __str__(self) -> str:
        return str(self.word)


def all_coxeter_words(n: int) -> Iterator[CoxeterWord]:
    """All (n-1)! orderings of the generators."""
    for letters in itertools.permutations(range(1, n)):
        yield CoxeterWord(Word(letters, n))


def orientation_of(c: CoxeterWord) -> Orientation:
    """The partition read off the word: j goes up iff s_j precedes s_{j-1}.

    >>> o = orientation_of(CoxeterWord(Word((2, 5, 4, 3, 1, 6), 7)))
    >>> sorted(o.u), sorted(o.d)
    ([2, 4, 5], [3, 6])
    """
    position = {letter: idx for idx, letter in enumerate(c.word)}
    up = frozenset(j for j in range(2, c.n) if position[j] < position[j - 1])
    down = frozenset(range(2, c.n)) - up
    return Orientation(up, down, c.n)


def c_sorting(pi: Permutation, c: CoxeterWord) -> tuple[tuple[frozenset[int], ...], Word]:
    """The c-factorization and the c-sorting word of pi, from one greedy extraction."""
    passes, residual = _greedy_extract(pi, c.word)
    assert residual.is_identity()  # c holds every generator, so no pass is stuck
    blocks = tuple(frozenset(taken) for taken in passes)
    return blocks, Word(tuple(itertools.chain(*passes)), pi.n)


def c_sorting_word(pi: Permutation, c: CoxeterWord) -> Word:
    """The greedy reduced expression of pi inside c repeated forever."""
    return c_sorting(pi, c)[1]


def c_factorization(pi: Permutation, c: CoxeterWord) -> tuple[frozenset[int], ...]:
    """Blocks I_1, ..., I_p: the letters the greedy extraction takes from
    each successive copy of c."""
    return c_sorting(pi, c)[0]


def is_c_sortable(pi: Permutation, c: CoxeterWord) -> bool:
    """True iff the factorization blocks decrease: I_1 >= I_2 >= ... >= I_p.

    >>> is_c_sortable(Permutation.from_text("4213"), CoxeterWord(Word((2, 1, 3), 4)))
    False
    """
    return is_decreasing(c_factorization(pi, c))


def is_decreasing(blocks: tuple[frozenset[int], ...]) -> bool:
    """True iff each block contains the next one."""
    return all(late <= early for early, late in zip(blocks, blocks[1:]))
