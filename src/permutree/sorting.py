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

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable

from .core import (
    Kind,
    Orientation,
    Permutation,
    PriorityOrder,
    Residual,
    Word,
    _letter_bits,
    all_permutations,
    is_minimal,
    one_line_parts,
)
from .automata import initial_state, label, product_accepts, state_count, table

# Characters in a block of a trace table's w column (SortTrace.to_table).  A
# stream that keeps what it is given holds every row's own slices, under a
# block each, and every distinct run of whole blocks, about width / block.
# On the benchmark's n = 200 text sort of seed 1 (2 cores, Python 3.11.7),
# blocks of 256, 1024 and 4096 kept 17.5, 19.4 and 47.9 MB and took at best
# 0.047-0.049, 0.047-0.049 and 0.054 s: none beat 1024 on both.
_WORD_BLOCK = 1024


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


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> bytes:
    """The mask's bits from bit 0 up, a byte 0 or 1 each, for itertools.compress."""
    return format(mask, "b")[::-1].encode().translate(_ZERO_ONE)


def _values(mask: int) -> frozenset[int]:
    """The set of the values v whose bit v the mask sets."""
    return frozenset(itertools.compress(itertools.count(), _bits(mask)))


def _set_writer(n: int, opening: str, separator: str, closing: str) -> Callable[[int], str]:
    """Writes a mask of values in 0..n as sorted(values), once per distinct mask."""
    tokens, join = one_line_parts(n)[0], separator.join
    written: dict[int, str] = {}

    def write(mask: int) -> str:
        text = written.get(mask)
        if text is None:
            text = written[mask] = opening + join(itertools.compress(tokens, _bits(mask))) + closing
        return text

    return write


_checked = functools.lru_cache(maxsize=1024)(json.dumps)  # a row's checks, (k, ok) pairs


@dataclass(frozen=True)
class SortTrace:
    """A sort's decisions: one (u, d, letter, checks, phase, applied) tuple
    per row, a TraceStep without its pi, with u and d as masks (bit v set for
    the value v).  A row's permutation is start after the applied letters of
    the rows before it, which _rows() replays."""

    start: Permutation
    decisions: tuple[tuple, ...]
    result: Permutation
    final_masks: tuple[int, int]  # u and d after the last row
    kind: Kind | None = None  # None for the (u, d) algorithm

    @property
    def success(self) -> bool:
        return self.result.is_identity()

    @property
    def word(self) -> Word:
        return Word(tuple(l for _, _, l, _, _, applied in self.decisions if applied), self.start.n)

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        """The rows as TraceSteps, each with its own Permutation, built at every read."""
        return tuple(
            TraceStep(Permutation(tuple(entries)), _values(u), _values(d), *row)
            for entries, _, (u, d, *row) in self._rows()
        )

    def _rows(self):
        """Each decision with the residual's entries and pi's one-line text
        when it was made; the entries are a live list, changed after the
        caller has read the row.  The text joins the values' strings, kept in
        one-line order: taking a letter l swaps the strings at rest.pos[l]
        and rest.pos[l + 1], as Residual.take swaps the values there."""
        rest = Residual(self.start)
        tokens, separator = one_line_parts(self.start.n)
        cells, join = [tokens[v] for v in rest.entries], separator.join
        for row in self.decisions:
            yield rest.entries, join(cells), row
            if row[5]:  # applied: take its letter
                i, j = rest.pos[row[2]], rest.pos[row[2] + 1]
                cells[i], cells[j] = cells[j], cells[i]
                rest.take(row[2])

    def to_table(self, file=None) -> str | None:
        """The trace as an aligned text table, one line per row.

        A header (pi | w | j | l for the single-automaton sort, pi | w | u |
        d | l | k for the (u, d) sort) and a rule of dashes come first, then
        one row per step, whose w cell is the word applied before that step
        ("e" when empty), and, when the sort succeeded, a final row with the
        identity and the whole word.  Cells are padded to their column's
        width and each line is stripped of trailing spaces.  Since the w
        column is as wide as the final word, the output has about
        rows x len(final word) characters, which grows as n^4 for a sort of
        length about n^2.  The widths are read off the decisions, and the
        cells after w are made once per distinct decision (u, d, letter,
        checks).  A row is four pieces: its one-line text, a run of the
        word's whole _WORD_BLOCK-character blocks, a piece of the row's own
        slices, and a run of whole blocks of blanks; each run is shared by
        the rows with as many blocks, so the rendering takes time linear in
        the output.  Returned, the table is one join of the pieces, at a peak
        of about its size.  Given a file, the pieces are written to it one at
        a time as the rows are replayed, and None is returned, having held
        the distinct cells, the word and one run of each kind, not the table
        or the rows' texts.  The CLI streams it so.
        """
        return _emit(self._table_pieces(), file)

    def _table_pieces(self):
        """to_table's pieces in order: the widths read off the decisions, then
        each row written as _rows() replays it."""
        single = self.kind is not None
        header = ["pi", "w", "j", "l"] if single else ["pi", "w", "u", "d", "l", "k"]
        # Each distinct decision's cells after w are made once.  A row's w
        # cell is a prefix of the word, so a row needs only its prefix's end,
        # and the last row's end is the column's width.  A sort that succeeded
        # ends on a row with the whole word and no letter, whose checks are None.
        set_cell = _set_writer(self.start.n, "{", ",", "}")
        index: dict[tuple, int] = {}
        cells = []
        width = end = 0
        final = ((*self.final_masks, 0, None, "", False),) if self.success else ()
        for u, d, letter, checks, _, applied in self.decisions + final:
            if (key := (u, d, letter, checks)) not in index:
                index[key] = len(cells)
                if single:  # the one value of u or d is the automaton's parameter
                    cells.append((str((u | d).bit_length() - 1), "" if checks is None else str(letter)))
                elif checks is None:
                    cells.append(("",) * 4)
                else:
                    checks_cell = ", ".join(str(k) if ok else f"x{k}" for k, ok in checks) or "."
                    cells.append((set_cell(u), set_cell(d), str(letter), checks_cell))
            width = end
            if applied:
                end += len(f"s{letter}") + (end > 0)  # a "." before all but the first
        first = max(len(header[0]), len(str(self.start)))  # every row's one-line text is as long
        width = max(1, width)  # "w" and "e" take one
        later = [max(map(len, column)) for column in zip(header[2:], *cells)]

        def tail(cells):  # the cells after w: the strip stops at their first " | "
            return (" | " + " | ".join(map(str.ljust, cells, later))).rstrip() + "\n"

        tails = list(map(tail, cells))
        # A row's prefix and its blanks are each a shared run of whole blocks
        # and a slice of its own, both slices in one piece (blanks are blanks
        # in any order).  The prefixes' counts of blocks only grow and the
        # blanks' only shrink, so a run is sliced again only when its count
        # changes; a count of 0 writes "".  Each line's cells after w open the
        # next line's first piece.
        block = _WORD_BLOCK
        word = ".".join(f"s{letter}" for letter in self.word)
        blank = " " * width
        before = (
            header[0].ljust(first) + " | " + "w".ljust(width) + tail(header[2:])
            + "-+-".join("-" * w for w in (first, width, *later)) + "\n"
        )
        replayed = ((text, row) for _, text, row in self._rows())
        end, whole, fill = 0, -1, -1
        for text, (u, d, letter, checks, _, applied) in itertools.chain(
            replayed, [(str(self.result), row) for row in final]
        ):
            if end // block != whole:
                whole = end // block
                word_run = word[: whole * block]
            pad = width - max(end, 1)
            if pad // block != fill:
                fill = pad // block
                blank_run = blank[: fill * block]
            yield before + text.ljust(first) + " | "
            yield word_run
            yield (word[whole * block : end] if end else "e") + blank[: pad - fill * block]
            yield blank_run
            before = tails[index[u, d, letter, checks]]
            if applied:
                end += len(f"s{letter}") + (end > 0)
        yield before

    def to_json(self, file=None) -> str | None:
        """The trace as one JSON object, as json.dumps(..., sort_keys=True) writes it.

        The keys come in sorted order: result, steps, success and word at the
        top, and applied, checks, d, letter, phase, pi and u in each step,
        with json's default separators.  Each step is written as one string
        whose u and d lists are made once per distinct set, and its checks
        once per distinct checks.  Returned, the object is one join of its
        head, its steps and its tail; given a file, they are written to it
        one file.write at a time and None is returned, as json.dump does.
        """
        return _emit(self._json_pieces(), file)

    def _json_pieces(self):
        """to_json's pieces in order: the head, each step after its separator, the tail."""
        listed = _set_writer(self.start.n, "[", ", ", "]")  # as json.dumps(sorted(values))
        yield f'{{"result": "{self.result}", "steps": ['
        separator = ""
        for _, text, (u, d, letter, checks, phase, applied) in self._rows():
            yield (
                f'{separator}{{"applied": {"true" if applied else "false"}, "checks": {_checked(checks)}, '
                f'"d": {listed(d)}, "letter": {letter}, "phase": "{phase}", '
                f'"pi": "{text}", "u": {listed(u)}}}'
            )
            separator = ", "
        yield (
            f'], "success": {"true" if self.success else "false"}, '
            f'"word": {json.dumps(list(self.word))}}}'
        )


def _emit(pieces, file) -> str | None:
    """The pieces joined, or, given a file, written to it in turn (None)."""
    if file is None:
        return "".join(pieces)
    write = file.write
    for piece in pieces:
        write(piece)
    return None


@functools.lru_cache(maxsize=1024)
def _walk_row(kind: Kind, j: int, n: int, code: int):
    """A single-automaton sort's row at a code: its set masks (the code's column,
    as u or d), its phase, and the letters that leave the code's status, as a
    mask in a Residual's default bit order.  Cached, since the 50,400 sorts
    over S_7 enter codes 161,784 times, 80 distinct."""
    delta = table(kind, j, n)
    column = 1 << label(kind, j, code)[0]
    sets = (column, 0) if kind is Kind.UP else (0, column)
    bit = _letter_bits(n, None)
    leaving = sum(bit[l] for l in range(1, n) if delta[l][code] % 3 != code % 3)
    return sets, "block" if code % 3 else "healthy", leaving


def sort_single(pi: Permutation, j: int, kind: Kind) -> SortTrace:
    """Sorting driven by a single automaton with start parameter j: a greedy
    walk of its transition table from code 0.

    Each step takes the least descent whose transition keeps the status, in
    phase healthy on a healthy row and block on an ill one; a row's set is
    its code's column.  When none does, a healthy row takes its one remaining
    descent, the ill-making letter, as the ill row, and an ill row stops.
    The returned word is always accepted by the automaton; the sort reaches
    the identity iff pi avoids the corresponding subword pattern.
    """
    n = pi.n
    if not 2 <= j <= n - 1:
        raise ValueError(f"j must lie in 2..{n - 1}, got {j}")
    delta = table(kind, j, n)
    natural = PriorityOrder.natural(n)
    decisions = []
    rest = Residual(pi)
    code = initial_state(kind, j, n)
    sets, phase, leaving = _walk_row(kind, j, n, code)
    while True:
        letter = natural.pick(rest.descents & ~leaving)
        if letter is None:
            if code % 3 or not rest.descents:
                break
            letter, phase = natural.pick(rest.descents), "ill"
        decisions.append((*sets, letter, (), phase, True))
        rest.take(letter)
        if delta[letter][code] != code:
            code = delta[letter][code]
            sets, phase, leaving = _walk_row(kind, j, n, code)
    return SortTrace(pi, tuple(decisions), Permutation(tuple(rest.entries)), sets, kind)


def permutree_sort(
    pi: Permutation, orientation: Orientation, priority: PriorityOrder | None = None
) -> SortTrace:
    """Sorting driven by a pair of sets (u, d).

    At each step, prefer a swap that keeps every component automaton healthy.
    The test for l, l+1 not in u and l not in d, restates the column rule of
    automata.table in (u, d) form: l makes the UP column l+1 and the DOWN
    column l ill.  Otherwise take a swap whose endangered components
    provably accept everything, witnessed by the prefix checks
    pi([l+1]) = [l+1] for l+1 in u and pi([l-1]) = [l-1] for l in d,
    dropping those components.  If neither exists the sort is stuck.
    The moved sets may transiently contain n or 1; those components accept
    every word.

    u and d are masks with bit v for the value v, as rows record them; the
    residual's descents and the blocked letters are masks in the priority's
    bit order, so a row's letter is one priority.pick of the descents less
    the blocked ones, and the ill phase tries the descents one pick at a
    time.  Taking l moves u and d only at l and l + 1, which changes only
    the blocked letters l - 1, l and l + 1.
    """
    orientation.require_disjoint()
    n = pi.n
    if priority is None:
        priority = PriorityOrder.natural(n)
    rest = Residual(pi, priority.order)
    bit = rest.bit
    u, d = orientation.masks
    blocked = sum(itertools.compress(bit, _bits(u >> 1 | d)))  # l with l + 1 in u or l in d
    decisions = []

    while rest.descents:
        letter = priority.pick(rest.descents & ~blocked)
        phase, checks = "healthy", ()
        if letter is None:
            phase, attempts = "ill", []
            untried = rest.descents
            while untried:
                letter = priority.pick(untried)
                untried ^= bit[letter]
                # every descent is blocked, so one or two checks, by k: the
                # d-check's l-1 before the u-check's l+1
                checks = ((letter - 1, rest.fixes_prefix(letter - 1)),) if d >> letter & 1 else ()
                if u >> letter & 2:
                    checks += ((letter + 1, rest.fixes_prefix(letter + 1)),)
                if checks[0][1] and checks[-1][1]:
                    break
                attempts.append((u, d, letter, checks, phase, False))
            else:
                decisions.extend(attempts)
                break
        decisions.append((u, d, letter, checks, phase, True))
        rest.take(letter)
        # l in u moves to l+1 and l+1 in d to l, onto values absent on a
        # healthy row and dropped on an ill one (its checks passed): bits
        # (l, l+1) of u become (0, bit l), and of d (bit l+1, 0), by one xor
        up, down = u >> letter & 3, d >> letter & 3
        if up:
            u ^= (up ^ (up & 1) << 1) << letter
        if down:
            d ^= (down ^ down >> 1) << letter
        if not (up or down):
            continue
        blocking = u >> 1 | d
        for l in (letter - 1, letter, letter + 1):
            if blocking >> l & 1:
                blocked |= bit[l]
            else:
                blocked &= ~bit[l]

    return SortTrace(pi, tuple(decisions), Permutation(tuple(rest.entries)), (u, d))


def _greedy_extract(pi: Permutation, template: Word) -> tuple[list, Permutation]:
    """Scan the template, taking each letter that shortens the residual.

    The template is repeated until the residual is sorted or a full pass
    takes nothing (stuck), which cannot happen when the template holds
    every generator.  Returns the letters taken in each pass that took any,
    and the final residual.  A letter shortens the residual iff it is one
    of its left descents.
    """
    if template.n != pi.n:
        raise ValueError("template degree does not match permutation")
    rest = Residual(pi)
    bit = rest.bit
    passes: list[tuple[int, ...]] = []
    while rest.descents:
        taken = []
        for letter in template.letters:
            if rest.descents & bit[letter]:
                taken.append(letter)
                rest.take(letter)
        if not taken:
            break
        passes.append(tuple(taken))
    return passes, Permutation(tuple(rest.entries))


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
    """Experimental template read off the healthy row of one automaton's table.

    At each healthy state before the boundary column, emit its looping
    letters (those mapping its code to itself) repeated as many times as
    there are of them, then its advancing letter (the one mapping its code
    to code + 3); append the extension (default: the decreasing staircase).
    No claim is made beyond what check_sorting_network reports for the result.
    """
    if not 2 <= j <= n - 1:
        raise ValueError(f"j must lie in 2..{n - 1}, got {j}")
    delta = table(kind, j, n)
    letters: list[int] = []
    for healthy in range(0, state_count(kind, j, n) - 2, 3):  # the boundary's healthy code is size - 2
        targets = [delta[letter][healthy] for letter in range(1, n)]
        loops = [letter for letter, target in enumerate(targets, 1) if target == healthy]
        letters.extend(loops * len(loops))
        letters.append(targets.index(healthy + 3) + 1)
    if extension is None:
        extension = Word(tuple(range(n - 1, 0, -1)), n)
    letters.extend(extension)
    return Word(tuple(letters), n)
