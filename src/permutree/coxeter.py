"""
Coxeter elements as explicit words, sorting words, and sortability.

A Coxeter word lists each generator exactly once.  Everything here depends
on the word, not just the group element it evaluates to, so the word is
carried around explicitly and group-element equality is never used.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import (
    Orientation,
    Permutation,
    Word,
    all_permutations,
    is_minimal,
)
from .automata import exists_accepted, product_accepts
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


@dataclass(frozen=True)
class CFactorization:
    """Blocks I_1, ..., I_p: the letters taken from each successive copy of c."""

    blocks: tuple[frozenset[int], ...]


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


def c_sorting_word(pi: Permutation, c: CoxeterWord) -> Word:
    """The greedy reduced expression of pi inside c repeated forever."""
    passes, residual = _greedy_extract(pi, c.word)
    assert residual.is_identity()  # c holds every generator, so no pass is stuck
    return Word(tuple(itertools.chain(*passes)), pi.n)


def c_factorization(pi: Permutation, c: CoxeterWord) -> CFactorization:
    """Which letters of each successive copy of c the greedy extraction takes."""
    passes, _ = _greedy_extract(pi, c.word)
    return CFactorization(tuple(frozenset(taken) for taken in passes))


def is_c_sortable(pi: Permutation, c: CoxeterWord) -> bool:
    """True iff the factorization blocks decrease: I_1 >= I_2 >= ... >= I_p.

    >>> is_c_sortable(Permutation.from_text("4213"), CoxeterWord(Word((2, 1, 3), 4)))
    False
    """
    blocks = c_factorization(pi, c).blocks
    return all(late <= early for early, late in zip(blocks, blocks[1:]))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of testing the five sortability characterizations on all of S_n.

    Each violation pairs a permutation with its five-condition vector:
    (sortable, sorting word accepted, some reduced expression accepted by
    every automaton, for each j some reduced expression accepted by the
    automaton at j alone, subword avoidance).
    """

    violations: tuple[tuple[Permutation, tuple[bool, bool, bool, bool, bool]], ...]
    sortable_count: int


def verify_csorting_equivalences(n: int, c: CoxeterWord) -> EquivalenceReport:
    """Evaluate all five conditions on every permutation of S_n.

    Exhaustive; intended for small n.  An empty violation list means the
    five characterizations agree everywhere.
    """
    orientation = orientation_of(c)
    # the one-automaton orientation of each j, for condition 4
    singles = [Orientation(orientation.u & {j}, orientation.d & {j}, n) for j in range(2, n)]
    violations = []
    sortable = 0
    for pi in all_permutations(n):
        conditions = (
            is_c_sortable(pi, c),
            product_accepts(orientation, c_sorting_word(pi, c)),
            exists_accepted(pi, orientation),
            all(exists_accepted(pi, single) for single in singles),
            is_minimal(pi, orientation),
        )
        if all(conditions):
            sortable += 1
        if len(set(conditions)) > 1:
            violations.append((pi, conditions))
    return EquivalenceReport(tuple(violations), sortable)
