"""
The executable sorting procedures.

Two algorithms, both of which try to write a permutation as a product of
simple transpositions while virtually walking the acceptance automata:

- single-automaton sorting: sort while refusing the one swap that would
  fall ill, entering the ill row at most once, then finish with every
  letter except the one the ill row forbids;
- pair-of-sets sorting: the generalisation driven by an orientation (u, d),
  which moves the sets along as the automata advance and checks prefix
  fixedness before sacrificing a component.

Both return a trace that renders to the same table layout used to display
worked runs (columns pi | w | u | d | l | k, or pi | w | j | l for the
single-automaton form): one row per decision, a terminal row with the final
permutation.  A failed sort returns the partial word and the non-identity
remainder, never an exception.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from .core import (
    Kind,
    Orientation,
    Permutation,
    Word,
    all_permutations,
    is_left_inversion,
    is_minimal,
    left_inversions,
    left_multiply,
    pattern_witness,
)
from .automata import initial_state, label, product_accepts, step, table


@dataclass(frozen=True)
class PriorityOrder:
    """A total order on the generator indices 1..n-1; earlier means preferred."""

    order: tuple[int, ...]
    rank: dict[int, int] = field(init=False, compare=False, repr=False)  # letter -> index in order

    def __post_init__(self):
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError(f"not an ordering of 1..{len(order)}: {order!r}")
        object.__setattr__(self, "rank", {letter: i for i, letter in enumerate(order)})

    @property
    def n(self) -> int:
        return len(self.order) + 1

    def key(self, letter: int) -> int:
        return self.rank[letter]

    def pick(self, candidates) -> int | None:
        candidates = list(candidates)
        if not candidates:
            return None
        return min(candidates, key=self.key)

    @classmethod
    def natural(cls, n: int) -> PriorityOrder:
        return cls(tuple(range(1, n)))

    @classmethod
    def shuffled(cls, n: int, rng: random.Random) -> PriorityOrder:
        letters = list(range(1, n))
        rng.shuffle(letters)
        return cls(tuple(letters))


@dataclass(frozen=True)
class TraceStep:
    """One decision row: the permutation and sets seen when the letter was chosen.

    checks holds the prefix-fixedness tests performed for this letter as
    (k, passed) pairs sorted by k; applied is False only on the rows of a
    stuck terminal decision, where the letter was considered and rejected.
    """

    pi: Permutation
    u: frozenset[int]
    d: frozenset[int]
    letter: int
    checks: tuple[tuple[int, bool], ...]
    phase: str
    applied: bool = True


@dataclass(frozen=True)
class SortTrace:
    steps: tuple[TraceStep, ...]
    word: Word
    result: Permutation
    final_u: frozenset[int]
    final_d: frozenset[int]
    kind: Kind | None = None  # None for the (u, d) algorithm

    @property
    def success(self) -> bool:
        return self.result.is_identity()

    def to_table(self) -> str:
        """The trace as an aligned text table, one line per row.

        A header (pi | w | j | l for the single-automaton sort, pi | w | u |
        d | l | k for the (u, d) sort) and a rule of dashes come first, then
        one row per step, whose w cell is the word applied before that step
        ("e" when empty), and, when the sort succeeded, a final row with the
        identity and the whole word.  Cells are padded to their column's
        width and each line is stripped of trailing spaces.  Since the w
        column is as wide as the final word, the output has about
        rows x len(final word) characters, which grows as n^4 for a sort of
        length about n^2; the rendering takes time and memory linear in it.
        """
        single = self.kind is not None
        header = ["pi", "w", "j", "l"] if single else ["pi", "w", "u", "d", "l", "k"]
        # Every step's w cell is a prefix of one string, so a row keeps the
        # string and the end of its prefix, (text, end), and the cell,
        # text[:end] or "e" when end is 0, is sliced only when the row's line
        # is built; formatting every cell from its letters would take time
        # quadratic in the row count.
        word = ".".join(f"s{s.letter}" for s in self.steps if s.applied)
        rows = [(header, "w", 1)]
        end = 0
        for s in self.steps:
            if single:
                param = next(iter(s.u if self.kind is Kind.UP else s.d))
                cells = [str(s.pi), "", str(param), str(s.letter)]
            else:
                cells = [
                    str(s.pi), "", _set_cell(s.u), _set_cell(s.d), str(s.letter), _checks_cell(s.checks)
                ]
            rows.append((cells, word, end))
            if s.applied:
                end += len(f"s{s.letter}") + (end > 0)  # a "." before all but the first
        if self.success:  # the applied letters are the whole word
            if single:
                param = next(iter(self.final_u if self.kind is Kind.UP else self.final_d))
                rows.append(([str(self.result), "", str(param), ""], word, end))
            else:
                rows.append(([str(self.result), "", "", "", "", ""], word, end))
        widths = [max(map(len, column)) for column in zip(*(cells for cells, _, _ in rows))]
        widths[1] = max(end for _, _, end in rows)
        lines = []
        for i, (cells, text, end) in enumerate(rows):
            row = [cells[0], text[:end] or "e", *cells[2:]]
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("-+-".join("-" * w for w in widths))
        lines.append("")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "steps": [
                {
                    "pi": str(s.pi),
                    "u": sorted(s.u),
                    "d": sorted(s.d),
                    "letter": s.letter,
                    "checks": [[k, ok] for k, ok in s.checks],
                    "phase": s.phase,
                    "applied": s.applied,
                }
                for s in self.steps
            ],
            "word": list(self.word),
            "result": str(self.result),
            "success": self.success,
        }
        return json.dumps(payload, sort_keys=True)


def _set_cell(values: frozenset[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _checks_cell(checks: tuple[tuple[int, bool], ...]) -> str:
    if not checks:
        return "."
    return ", ".join(str(k) if ok else f"x{k}" for k, ok in checks)


def move_u(u: frozenset[int], letter: int) -> frozenset[int]:
    """Advance the up-set along the letter: l in u becomes l+1."""
    if letter not in u:
        return u
    return (u - {letter}) | {letter + 1}


def move_d(d: frozenset[int], letter: int) -> frozenset[int]:
    """Advance the down-set along the letter: l+1 in d becomes l."""
    if letter + 1 not in d:
        return d
    return (d - {letter + 1}) | {letter}


def _fixes_prefix(pi: Permutation, k: int) -> bool:
    """pi([k]) == [k] setwise; vacuously true for k <= 0 and k >= n."""
    if k <= 0 or k >= pi.n:
        return True
    return max(pi.entries[:k]) == k


def sort_single(pi: Permutation, j: int, kind: Kind) -> SortTrace:
    """Sorting driven by a single automaton with start parameter j.

    Each step takes the least available letter.  Phase one refuses only the
    swap that would fall ill, moving the parameter along whenever the
    advancing letter is used.  Once only the ill-making swap remains it is
    taken; the finish then takes every letter except the one the ill row
    forbids.  The returned word is always accepted by the automaton; the
    sort reaches the identity iff pi avoids the corresponding subword pattern.
    """
    n = pi.n
    if not 2 <= j <= n - 1:
        raise ValueError(f"j must lie in 2..{n - 1}, got {j}")
    up = kind is Kind.UP
    param = j
    steps: list[TraceStep] = []
    taken: list[int] = []

    def record(letter: int, phase: str) -> None:
        nonlocal pi
        sets = (frozenset({param}), frozenset()) if up else (frozenset(), frozenset({param}))
        steps.append(TraceStep(pi, sets[0], sets[1], letter, (), phase))
        taken.append(letter)
        pi = left_multiply(letter, pi)

    while True:
        forbidden = param - 1 if up else param
        letter = min((l for l in left_inversions(pi) if l != forbidden), default=None)
        if letter is None:
            break
        record(letter, "healthy")
        if up and letter == param:
            param += 1
        elif not up and letter == param - 1:
            param -= 1

    ill_letter = param - 1 if up else param
    if 1 <= ill_letter <= n - 1 and is_left_inversion(pi, ill_letter):
        record(ill_letter, "ill")
        # the ill row forbids one letter, cut; a letter below it never changes a
        # descent above it, so the least letter sorts the lower value block first
        cut = param if up else param - 1
        while True:
            letter = min((l for l in left_inversions(pi) if l != cut), default=None)
            if letter is None:
                break
            record(letter, "block")

    final_sets = (frozenset({param}), frozenset()) if up else (frozenset(), frozenset({param}))
    return SortTrace(tuple(steps), Word(tuple(taken), n), pi, final_sets[0], final_sets[1], kind)


def permutree_sort(
    pi: Permutation, orientation: Orientation, priority: PriorityOrder | None = None
) -> SortTrace:
    """Sorting driven by a pair of sets (u, d).

    At each step, prefer a swap that keeps every component automaton healthy
    (available iff l+1 is not in u and l is not in d); otherwise take a swap
    whose endangered components provably accept everything, witnessed by the
    prefix checks pi([l+1]) = [l+1] for l+1 in u and pi([l-1]) = [l-1] for l
    in d, dropping those components.  If neither exists the sort is stuck.
    The moved sets may transiently contain n or 1; those components accept
    every word.
    """
    orientation.require_disjoint()
    n = pi.n
    if priority is None:
        priority = PriorityOrder.natural(n)
    u, d = orientation.u, orientation.d
    steps: list[TraceStep] = []
    taken: list[int] = []

    while True:
        descents = left_inversions(pi)
        if not descents:
            break
        letter = priority.pick(l for l in descents if l + 1 not in u and l not in d)
        if letter is not None:
            steps.append(TraceStep(pi, u, d, letter, (), "healthy"))
            taken.append(letter)
            pi = left_multiply(letter, pi)
            u, d = move_u(u, letter), move_d(d, letter)
            continue
        chosen = None
        attempts: list[TraceStep] = []
        for l in sorted(descents, key=priority.key):
            checks = []
            if l + 1 in u:
                checks.append((l + 1, _fixes_prefix(pi, l + 1)))
            if l in d:
                checks.append((l - 1, _fixes_prefix(pi, l - 1)))
            checks.sort()
            if all(ok for _, ok in checks):
                chosen = (l, tuple(checks))
                break
            attempts.append(TraceStep(pi, u, d, l, tuple(checks), "ill", applied=False))
        if chosen is None:
            steps.extend(attempts)
            break
        letter, checks = chosen
        steps.append(TraceStep(pi, u, d, letter, checks, "ill"))
        taken.append(letter)
        pi = left_multiply(letter, pi)
        u, d = move_u(u - {letter + 1}, letter), move_d(d - {letter}, letter)

    return SortTrace(tuple(steps), Word(tuple(taken), n), pi, u, d)


def minimality_witness(
    pi: Permutation, orientation: Orientation
) -> tuple[int, Kind, tuple[int, int, int]] | None:
    """A violating (j, kind, positions) triple, or None when minimal."""
    for kind, j in orientation.components:
        witness = pattern_witness(pi, j, kind)
        if witness is not None:
            return (j, kind, witness)
    return None


def _greedy_extract(pi: Permutation, template: Word) -> tuple[list, Permutation]:
    """Scan the template, taking each letter that shortens the residual.

    The template is repeated until the residual is sorted or a full pass
    takes nothing (stuck), which cannot happen when the template holds
    every generator.  Returns the letters taken in each pass that took any,
    and the final residual.
    """
    if template.n != pi.n:
        raise ValueError("template degree does not match permutation")
    residual = pi
    passes: list[tuple[int, ...]] = []
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


def network_mismatch(template: Word, orientation: Orientation, pi: Permutation) -> bool:
    """Is pi a counterexample to the template deciding minimality?

    The template plays the role of an unbounded supply of its own copies:
    the greedy extraction cycles until it sorts pi or gets stuck.  The
    network answers yes iff the extraction terminates with a reduced
    expression of pi accepted by the intersection automaton.
    """
    passes, residual = _greedy_extract(pi, template)
    word = Word(tuple(itertools.chain(*passes)), pi.n)
    decided = residual.is_identity() and product_accepts(orientation, word)
    return decided != is_minimal(pi, orientation)


def check_sorting_network(template: Word, orientation: Orientation) -> Permutation | None:
    """First permutation (lexicographically) refuting the template, or None.

    None means the template is a valid sorting network for the orientation:
    its greedy extraction decides minimality for every permutation of S_n.
    """
    if template.n != orientation.n:
        raise ValueError("template and orientation must agree on the degree")
    for pi in all_permutations(orientation.n):
        if network_mismatch(template, orientation, pi):
            return pi
    return None


def network_candidate(kind: Kind, j: int, n: int, extension: Word | None = None) -> Word:
    """Experimental template read off the healthy row of one automaton.

    At each healthy state before the boundary, emit the looping letters
    repeated as many times as there are of them, then the advancing letter;
    append the extension (default: the decreasing staircase).  No claim is
    made beyond what check_sorting_network reports for the result.
    """
    if not 2 <= j <= n - 1:
        raise ValueError(f"j must lie in 2..{n - 1}, got {j}")
    letters: list[int] = []
    delta = table(kind, j, n)
    code = initial_state(kind, j, n)
    column = label(kind, j, code)[0]
    boundary = n if kind is Kind.UP else 1
    while column != boundary:
        advancing = column if kind is Kind.UP else column - 1
        ill_making = column - 1 if kind is Kind.UP else column
        loops = [l for l in range(1, n) if l not in (advancing, ill_making)]
        letters.extend(loops * len(loops))
        letters.append(advancing)
        code = step(delta, code, advancing)
        column = label(kind, j, code)[0]
    if extension is None:
        extension = Word(tuple(range(n - 1, 0, -1)), n)
    letters.extend(extension)
    return Word(tuple(letters), n)
