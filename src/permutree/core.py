"""
Permutations of {1, ..., n}, words in the simple transpositions, and the
subword statistics everything else is tested against.

Conventions, used consistently across the package:

- Values and positions are both 1-indexed.  A ``Permutation`` stores its
  one-line notation ``pi(1) ... pi(n)``.
- The generator index ``l`` always means the simple transposition
  ``s_l = (l l+1)``.  Multiplying by ``s_l`` on the left swaps the entries
  with *values* ``l`` and ``l+1``; multiplying on the right swaps the
  entries at *positions* ``l`` and ``l+1``.
- A ``Word`` is a sequence of generator indices and is evaluated left to
  right by folding right multiplications over the identity, so that
  ``evaluate(Word((3, 5, 2, 1, 3), 6))`` is the permutation 413265.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator


class Kind(Enum):
    """Which of the two mirror-image automata/subword families is meant.

    UP is the family that forbids subwords j..k..i with i < j < k where j is
    the fixed middle value and appears first; DOWN forbids k..i..j where j
    appears last.
    """

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation, e.g. ``Permutation((3, 4, 2, 1))``."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = self.entries
        if type(entries) is not tuple:
            entries = tuple(entries)
            object.__setattr__(self, "entries", entries)
        n = len(entries)
        if n < 1 or sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {entries!r}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def value_at(self, position: int) -> int:
        """pi(position), 1-indexed."""
        return self.entries[position - 1]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.entries, start=1))

    def length(self) -> int:
        """Number of inversions, i.e. the Coxeter length.

        >>> Permutation((4, 3, 2, 1)).length()
        6
        """
        entries = self.entries
        return sum(high > low for i, high in enumerate(entries) for low in entries[i + 1 :])

    def __str__(self) -> str:
        return one_line_writer(self.n)(self.entries)

    @classmethod
    def from_text(cls, text: str) -> Permutation:
        """Parse one-line notation, either "3421" or "3 4 2 1" / "3,4,2,1".

        >>> Permutation.from_text("3421")
        Permutation(entries=(3, 4, 2, 1))
        """
        text = text.strip()
        if not text:
            raise ValueError("empty permutation")
        if any(sep in text for sep in (" ", ",")):
            parts = text.replace(",", " ").split()
        else:
            parts = list(text)
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"cannot parse permutation from {text!r}") from exc


@dataclass(frozen=True)
class Word:
    """A word in the simple transpositions of S_n; letters lie in 1..n-1.

    >>> str(Word((2, 1, 3, 2, 3), 4))
    '2,1,3,2,3'
    """

    letters: tuple[int, ...]
    n: int

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if self.n < 1:
            raise ValueError("degree must be at least 1")
        for letter in letters:
            if not 1 <= letter <= self.n - 1:
                raise ValueError(f"letter {letter} out of range 1..{self.n - 1}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return ",".join(str(letter) for letter in self.letters)

    @classmethod
    def from_text(cls, text: str, n: int) -> Word:
        """Parse "2,1,3,2,3" (or space-separated); the empty string is the empty word."""
        text = text.strip()
        if not text:
            return cls((), n)
        parts = text.replace(",", " ").split()
        return cls(tuple(int(p) for p in parts), n)


@dataclass(frozen=True)
class Orientation:
    """A pair (u, d) of subsets of {2, ..., n-1}, the permutree parameter.

    The two sets may intersect; operations that need disjointness check it
    themselves.  The boundary automata at j = n and j = 1 are never part of
    an orientation.  components lists its automata as (kind, j): u ascending
    as UP, then d ascending as DOWN, a shared parameter once per side.
    """

    u: frozenset[int]
    d: frozenset[int]
    n: int
    components: tuple[tuple[Kind, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        u = frozenset(self.u)
        d = frozenset(self.d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        allowed = set(range(2, self.n))
        for name, values in (("u", u), ("d", d)):
            if not values <= allowed:
                shown = f"{{2,..,{self.n - 1}}}" if self.n > 3 else "{2}" if self.n == 3 else "{}"
                raise ValueError(f"{name} must be a subset of {shown}, got {sorted(values)}")
        parts = [(Kind.UP, j) for j in sorted(u)] + [(Kind.DOWN, j) for j in sorted(d)]
        object.__setattr__(self, "components", tuple(parts))

    @property
    def is_disjoint(self) -> bool:
        return not (self.u & self.d)

    def require_disjoint(self) -> None:
        if not self.is_disjoint:
            raise ValueError(f"u and d must be disjoint, both contain {sorted(self.u & self.d)}")


@lru_cache(maxsize=16)
def one_line_writer(n: int) -> Callable[[Iterable[int]], str]:
    """A function writing the entries of a degree-n permutation as str() does.

    The values run together up to n = 9 and are space-separated above.  The
    value strings are made once per degree, so rendering a permutation costs
    one join.

    >>> one_line_writer(4)((3, 4, 2, 1)), one_line_writer(10)(range(10, 0, -1))
    ('3421', '10 9 8 7 6 5 4 3 2 1')
    """
    join = ("" if n <= 9 else " ").join
    token = [str(v) for v in range(n + 1)].__getitem__
    return lambda entries: join(map(token, entries))


def identity(n: int) -> Permutation:
    """The identity permutation of S_n.

    >>> str(identity(4))
    '1234'
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    return Permutation(tuple(range(1, n + 1)))


def left_multiply(letter: int, pi: Permutation) -> Permutation:
    """s_letter * pi: swap the entries with values letter and letter+1.

    >>> str(left_multiply(4, Permutation.from_text("142536")))
    '152436'
    """
    entries = pi.entries
    _check_letter(letter, len(entries))
    swapped = list(entries)
    swapped[entries.index(letter)], swapped[entries.index(letter + 1)] = letter + 1, letter
    return Permutation(tuple(swapped))


def right_multiply(pi: Permutation, letter: int) -> Permutation:
    """pi * s_letter: swap the entries at positions letter and letter+1.

    >>> str(right_multiply(identity(4), 2))
    '1324'
    """
    _check_letter(letter, pi.n)
    entries = list(pi.entries)
    entries[letter - 1], entries[letter] = entries[letter], entries[letter - 1]
    return Permutation(tuple(entries))


def left_inversions(pi: Permutation) -> tuple[int, ...]:
    """All letters l with values l, l+1 reversed in pi, ascending."""
    entries = pi.entries
    n = len(entries)
    positions = [0] * (n + 1)
    for pos, val in enumerate(entries):
        positions[val] = pos
    return tuple([l for l in range(1, n) if positions[l + 1] < positions[l]])


def contains_pattern(pi: Permutation, j: int, kind: Kind) -> bool:
    """Does pi contain a subword jki (UP) or kij (DOWN) with i < j < k?

    The value j is fixed; i and k range over all values below and above it.

    >>> contains_pattern(Permutation.from_text("42135"), 3, Kind.DOWN)
    True
    >>> contains_pattern(Permutation.from_text("42135"), 3, Kind.UP)
    False
    """
    return pattern_witness(pi, j, kind) is not None


def pattern_witness(pi: Permutation, j: int, kind: Kind) -> tuple[int, int, int] | None:
    """Positions (p, q, r) of one jki (UP) / kij (DOWN) occurrence, or None.

    The package's one scan of j's side (after j for UP, before j for DOWN):
    k is the first value above j there and i the first value below j after k.
    """
    if not 2 <= j <= pi.n - 1:
        raise ValueError(f"j must lie in 2..{pi.n - 1}, got {j}")
    entries = pi.entries
    pos_j = entries.index(j)
    high = None
    for val in entries[pos_j + 1 :] if kind is Kind.UP else entries[:pos_j]:
        if val > j:
            if high is None:
                high = val
        elif high is not None:  # j is not on its own side, so val < j
            found = (entries.index(high) + 1, entries.index(val) + 1)
            return (pos_j + 1, *found) if kind is Kind.UP else (*found, pos_j + 1)
    return None


def minimality_witness(
    pi: Permutation, orientation: Orientation
) -> tuple[int, Kind, tuple[int, int, int]] | None:
    """A violating (j, kind, positions) triple, or None when minimal."""
    for kind, j in orientation.components:
        witness = pattern_witness(pi, j, kind)
        if witness is not None:
            return (j, kind, witness)
    return None


def is_minimal(pi: Permutation, orientation: Orientation) -> bool:
    """Subword-avoidance test: no jki for j in u, no kij for j in d."""
    return minimality_witness(pi, orientation) is None


def ninv_stats(pi: Permutation, j: int) -> tuple[int, int]:
    """(ninv_above, ninv_below) for the value j.

    ninv_above counts inversions (j, i) with i < j, i.e. j sits above a
    smaller value it precedes out of order; ninv_below counts inversions
    (k, j) with k > j.

    >>> ninv_stats(Permutation.from_text("4321"), 2)
    (1, 2)
    """
    if not 1 <= j <= pi.n:
        raise ValueError(f"j must lie in 1..{pi.n}, got {j}")
    pos_j = pi.entries.index(j)
    above = sum(1 for pos in range(pos_j + 1, pi.n) if pi.entries[pos] < j)
    below = sum(1 for pos in range(pos_j) if pi.entries[pos] > j)
    return (above, below)


def evaluate(word: Word) -> Permutation:
    """The permutation s_{i1} ... s_{ik}, letters multiplied left to right.

    >>> str(evaluate(Word((3, 5, 2, 1, 3), 6)))
    '413265'
    """
    entries = list(identity(word.n).entries)
    for letter in word.letters:  # right_multiply in place; Word checked each letter
        entries[letter - 1], entries[letter] = entries[letter], entries[letter - 1]
    return Permutation(tuple(entries))


class Residual:
    """A permutation kept for left multiplication, one descent at a time.

    entries is its one-line notation, pos[v] the index of the value v in
    entries, and descents its set of left descents: l is one iff
    pos[l+1] < pos[l].  Taking a descent l (pi becomes s_l * pi) swaps the
    values l and l+1, which changes only the descents l-1, l and l+1.  The
    sorts and the greedy extraction take their letters through it, and a
    sort trace replays its applied letters through it to recover each row.
    """

    __slots__ = ("entries", "pos", "descents")

    def __init__(self, pi: Permutation):
        self.entries = list(pi.entries)
        self.pos = pos = [0] * (pi.n + 1)
        for at, value in enumerate(self.entries):
            pos[value] = at
        self.descents = {l for l in range(1, pi.n) if pos[l + 1] < pos[l]}

    def take(self, letter: int) -> None:
        """Left-multiply by s_letter, for a letter in descents."""
        entries, pos, descents = self.entries, self.pos, self.descents
        i, j = pos[letter], pos[letter + 1]
        entries[i], entries[j] = letter + 1, letter
        pos[letter], pos[letter + 1] = j, i
        descents.discard(letter)
        if letter > 1:
            if pos[letter] < pos[letter - 1]:
                descents.add(letter - 1)
            else:
                descents.discard(letter - 1)
        if letter + 2 < len(pos):
            if pos[letter + 2] < pos[letter + 1]:
                descents.add(letter + 1)
            else:
                descents.discard(letter + 1)

    def fixes_prefix(self, k: int) -> bool:
        """pi([k]) == [k] setwise; vacuously true for k <= 0 and k >= n."""
        return k <= 0 or k >= len(self.entries) or max(self.entries[:k]) == k


def walk_reduced_words(
    pi: Permutation,
    key: Callable[[int], int] | None = None,
    state: Hashable = (),
    advance: Callable[[Hashable, int], Hashable | None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the letters of pi's reduced expressions, depth first.

    A reduced expression of p starts with a left descent l of p and goes on
    with one of s_l * p; the children of a node are tried in ascending order
    of l, or of key(l).  With advance, the child reached by l carries
    advance(state, l), and the branch is cut where that is None.

    The walk keeps one position array, pos[v] = the position of the value v
    (pos[0] is unused): l is a left descent iff pos[l+1] < pos[l], and
    stepping to s_l * p swaps pos[l] and pos[l+1], undone on the way back.
    So pos always holds the node on top of the stack, and each node's
    descents are read lazily from it, only as far as the walk tries them.
    A Residual would keep every node's descent set up to date at each step
    instead, and cost more: a walker built on it ran the theorem2 suite in
    0.130 s (0.095 s with pos) and csorting in 0.190 s (0.141 s),
    in-process, best of 3, on 2 cores with Python 3.11.
    A node is the identity iff its depth is the length of pi.  Below a node
    the walk depends only on (its position tuple, its state), which is in
    bijection with (its entries, its state), so a pair whose subtree yielded
    nothing is skipped when met again.  The stack is explicit: no recursion
    limit bounds the length of pi.
    """
    length = pi.length()
    if not length:
        yield ()
        return
    pos = [0] * (pi.n + 1)
    for at, value in enumerate(pi.entries, start=1):
        pos[value] = at
    order = range(1, pi.n) if key is None else sorted(range(1, pi.n), key=key)
    yields = 0
    failed: set[tuple[tuple[int, ...], Hashable]] = set()
    path: list[int] = []
    # frames: (state, untried descents, words yielded before the node)
    stack = [(state, (l for l in order if pos[l + 1] < pos[l]), 0)]
    while True:
        current, todo, before = stack[-1]
        for letter in todo:
            nxt = current if advance is None else advance(current, letter)
            if nxt is None:
                continue
            if len(path) + 1 == length:
                yields += 1
                yield (*path, letter)
                continue
            pos[letter], pos[letter + 1] = pos[letter + 1], pos[letter]
            if failed and (tuple(pos), nxt) in failed:
                pos[letter], pos[letter + 1] = pos[letter + 1], pos[letter]
                continue
            path.append(letter)
            stack.append((nxt, (l for l in order if pos[l + 1] < pos[l]), yields))
            break
        else:
            stack.pop()
            if not stack:
                return
            if yields == before:
                failed.add((tuple(pos), current))
            letter = path.pop()
            pos[letter], pos[letter + 1] = pos[letter + 1], pos[letter]


def iter_reduced_words(pi: Permutation) -> Iterator[Word]:
    """Yield every reduced expression of pi, in lexicographic order.

    Memory per yielded word is O(length); nothing is cached.
    """
    for letters in walk_reduced_words(pi):
        yield Word(letters, pi.n)


@lru_cache(maxsize=8)
def all_reduced_words(pi: Permutation) -> frozenset[Word]:
    """The set of reduced expressions of pi.

    Exponential in general; intended for n <= 6.  Its callers, networks and
    the prefix suite where a check fails, need the words themselves; no
    passing suite hits the cache, which stays for perfbench/worker.py's reads.

    >>> len(all_reduced_words(Permutation.from_text("4312")))
    5
    """
    return frozenset(iter_reduced_words(pi))


def stack_sort(pi: Permutation) -> Permutation:
    """One pass of stack sorting, S(t n r) = S(t) S(r) n: each value pops the
    smaller values on top of the stack to the output, then is pushed.

    pi is stack-sortable iff the result is the identity.

    >>> str(stack_sort(Permutation.from_text("231")))
    '213'
    """
    stack: list[int] = []
    out: list[int] = []
    for value in pi.entries:
        while stack and stack[-1] < value:
            out.append(stack.pop())
        stack.append(value)
    out.extend(reversed(stack))
    return Permutation(tuple(out))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line notation."""
    for entries in itertools.permutations(range(1, n + 1)):
        yield Permutation(entries)


def _check_letter(letter: int, n: int) -> None:
    if not 1 <= letter <= n - 1:
        raise ValueError(f"letter {letter} out of range 1..{n - 1}")
