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
- A ``Word`` is a sequence of generator indices, read left to right as
  right multiplications of the identity, so that ``Word((3, 5, 2, 1, 3), 6)``
  stands for the permutation 413265.
"""
from __future__ import annotations

import itertools
import random
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
        if n < 1 or tuple(sorted(entries)) != _identity(n):
            raise ValueError(f"not a permutation of 1..{n}: {entries!r}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def value_at(self, position: int) -> int:
        """pi(position), 1-indexed."""
        return self.entries[position - 1]

    def is_identity(self) -> bool:
        return self.entries == _identity(len(self.entries))

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
        last = self.n - 1
        for letter in letters:
            if not 1 <= letter <= last:
                raise ValueError(f"letter {letter} out of range 1..{last}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return ",".join(str(letter) for letter in self.letters)


@dataclass(frozen=True)
class Orientation:
    """A pair (u, d) of disjoint subsets of {2, ..., n-1}, the permutree
    parameter; overlapping sets are refused.

    The boundary automata at j = n and j = 1 are never part of an
    orientation.  components lists its automata as (kind, j): u ascending as
    UP, then d ascending as DOWN; masks holds u and d as ints with bit v set
    for the value v.
    """

    u: frozenset[int]
    d: frozenset[int]
    n: int
    components: tuple[tuple[Kind, int], ...] = field(init=False, compare=False, repr=False)
    masks: tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        u, d = frozenset(self.u), frozenset(self.d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        allowed = range(2, self.n)  # a range tests membership without holding its values
        for name, values in (("u", u), ("d", d)):
            if not all(v in allowed for v in values):
                shown = f"{{2,..,{self.n - 1}}}" if self.n > 3 else "{2}" if self.n == 3 else "{}"
                raise ValueError(f"{name} must be a subset of {shown}, got {sorted(values)}")
        if u & d:
            raise ValueError(f"u and d must be disjoint, both contain {sorted(u & d)}")
        parts = [(Kind.UP, j) for j in sorted(u)] + [(Kind.DOWN, j) for j in sorted(d)]
        object.__setattr__(self, "components", tuple(parts))
        object.__setattr__(self, "masks", (sum(1 << v for v in u), sum(1 << v for v in d)))

    def require_degree(self, n: int, of: str = "permutation") -> None:
        require_same_degree("orientation", self.n, of, n)


def require_same_degree(what: str, degree: int, thing: str, n: int) -> None:
    """Refuse a what of one degree given for a thing of another, naming both;
    the package's one check that two inputs share their degree."""
    if degree != n:
        article = "an" if thing[0] in "aeiou" else "a"
        raise ValueError(f"{what} of degree {degree} for {article} {thing} of degree {n}")


@lru_cache(maxsize=16)
def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


@lru_cache(maxsize=16)
def one_line_parts(n: int) -> tuple[tuple[str, ...], str]:
    """The strings of the values 0..n and the separator of a degree-n
    one-line text: none up to n = 9, a space above."""
    return tuple(map(str, range(n + 1))), "" if n <= 9 else " "


@lru_cache(maxsize=16)
def one_line_writer(n: int) -> Callable[[Iterable[int]], str]:
    """A function writing the entries of a degree-n permutation as str() does,
    with one join.

    >>> one_line_writer(4)((3, 4, 2, 1)), one_line_writer(10)(range(10, 0, -1))
    ('3421', '10 9 8 7 6 5 4 3 2 1')
    """
    tokens, separator = one_line_parts(n)
    join, token = separator.join, list(tokens).__getitem__  # a faster call than tuple's
    return lambda entries: join(map(token, entries))


def right_swap(entries: tuple[int, ...], l: int) -> tuple[int, ...]:
    """pi * s_l on one-line entries, positions l and l+1 swapped, with no Permutation built.

    >>> right_swap((3, 4, 2, 1), 2)
    (3, 2, 4, 1)
    """
    return (*entries[: l - 1], entries[l], entries[l - 1], *entries[l + 1 :])


def left_multiply(letter: int, pi: Permutation) -> Permutation:
    """s_letter * pi: swap the entries with values letter and letter+1.

    >>> str(left_multiply(4, Permutation.from_text("142536")))
    '152436'
    """
    entries = pi.entries
    n = len(entries)
    if not 1 <= letter <= n - 1:
        raise ValueError(f"letter {letter} out of range 1..{n - 1}")
    swapped = list(entries)
    swapped[entries.index(letter)], swapped[entries.index(letter + 1)] = letter + 1, letter
    return Permutation(tuple(swapped))


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
    The answer is bit j of one of pattern_masks(pi).

    >>> contains_pattern(Permutation.from_text("42135"), 3, Kind.DOWN)
    True
    >>> contains_pattern(Permutation.from_text("42135"), 3, Kind.UP)
    False
    """
    require_middle(j, pi.n)
    return pattern_masks(pi)[kind is Kind.DOWN] >> j & 1 == 1


def pattern_masks(pi: Permutation) -> tuple[int, int]:
    """(up, down): bit j of up is set iff pi contains jki, and bit j of down
    iff pi contains kij, for some i < j < k.

    One pass each way.  From the right, a k at position q puts every value
    strictly between k and the least value after q within reach of a j
    before q; from the left, an i at q puts every value strictly between i
    and the greatest value before q within reach of a j after q.  The masks
    are kept in pi's instance dict after the first call (pi is immutable);
    they are no dataclass field, so building a Permutation pays nothing.

    >>> pattern_masks(Permutation.from_text("42135"))
    (0, 8)
    """
    masks = pi.__dict__.get("_pattern_masks")
    if masks is not None:
        return masks
    entries = pi.entries
    up = down = 0
    reach, low = 0, len(entries) + 1
    for value in reversed(entries):
        if value < low:  # every interval in reach starts above low
            low = value
        else:
            bit = 1 << value
            up |= reach & bit
            reach |= bit - (2 << low)
    reach, high = 0, 0
    for value in entries:
        if value > high:  # every interval in reach ends below high
            high = value
        else:
            down |= reach & 1 << value
            reach |= (1 << high) - (2 << value)
    masks = pi.__dict__["_pattern_masks"] = (up, down)
    return masks


def require_middle(j: int, n: int) -> None:
    """Refuse a j outside 2..n-1, the values that can sit between an i and a k."""
    if not 2 <= j <= n - 1:
        raise ValueError(f"j must lie in 2..{n - 1}, got {j}")


def minimality_witness(
    pi: Permutation, orientation: Orientation
) -> tuple[int, Kind, tuple[int, int, int]] | None:
    """A violating (j, kind, positions) triple, or None when minimal.

    j is the least value that pattern_masks(pi) hits in u (UP), else in d
    (DOWN): the first failing component.  One scan of j's side then takes k,
    the first value above j there, and i, the first value below j after k.
    """
    orientation.require_degree(pi.n)
    up, down = pattern_masks(pi)
    u, d = orientation.masks
    hit, kind = (up & u, Kind.UP) if up & u else (down & d, Kind.DOWN)
    if not hit:
        return None
    j = (hit & -hit).bit_length() - 1
    entries = pi.entries
    at = entries.index(j)
    start, stop = (at + 1, len(entries)) if kind is Kind.UP else (0, at)
    q = next(q for q in range(start, stop) if entries[q] > j)
    r = next(r for r in range(q + 1, stop) if entries[r] < j)
    return j, kind, ((at + 1, q + 1, r + 1) if kind is Kind.UP else (q + 1, r + 1, at + 1))


def is_minimal(pi: Permutation, orientation: Orientation) -> bool:
    """Subword-avoidance test: no jki for j in u, no kij for j in d, read as
    one AND of pi's pattern_masks with the orientation's masks."""
    if orientation.n != len(pi.entries):  # the call would cost as much as the test below
        orientation.require_degree(pi.n)
    up, down = pattern_masks(pi)
    u, d = orientation.masks
    return not (up & u or down & d)


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


@dataclass(frozen=True)
class PriorityOrder:
    """A total order on the generator indices 1..n-1; earlier means preferred.
    bit[l], 1 << rank[l] (0 at 0 and n), is l's bit in a Residual's descents."""

    order: tuple[int, ...]
    rank: dict[int, int] = field(init=False, compare=False, repr=False)  # letter -> index in order
    bit: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError(f"not an ordering of 1..{len(order)}: {order!r}")
        object.__setattr__(self, "rank", {letter: i for i, letter in enumerate(order)})
        object.__setattr__(self, "bit", (0, *(1 << self.rank[l] for l in range(1, self.n)), 0))

    @property
    def n(self) -> int:
        return len(self.order) + 1

    def pick(self, mask: int) -> int | None:
        """The most preferred letter of a mask whose bit r stands for order[r]
        (a Residual's descents in this order), or None for 0."""
        return self.order[(mask & -mask).bit_length() - 1] if mask else None

    @classmethod
    @lru_cache(maxsize=16)
    def natural(cls, n: int) -> PriorityOrder:
        """The order 1, 2, ..., n-1; one shared instance per n (it is immutable)."""
        return cls(tuple(range(1, n)))

    @classmethod
    def resolve(cls, priority: PriorityOrder | None, n: int, of: str) -> PriorityOrder:
        """The order to use for an input (named by of) on n values: the natural
        order when priority is None, else priority itself, refused at another degree."""
        if priority is None:
            return cls.natural(n)
        require_same_degree("priority", priority.n, of, n)
        return priority

    @classmethod
    def shuffled(cls, n: int, rng: random.Random) -> PriorityOrder:
        letters = list(range(1, n))
        rng.shuffle(letters)
        return cls(tuple(letters))


class Residual:
    """A permutation kept for left multiplication, one descent at a time.

    entries is its one-line notation, pos[v] the index of the value v in
    entries, and descents an int whose bit r says that the r-th letter of
    its priority (PriorityOrder.resolve's, natural by default) is a left descent: l
    is one iff pos[l+1] < pos[l].  bit is the priority's own bit table, so
    every Residual of one priority shares it.  Taking a
    descent l (pi becomes s_l * pi) swaps the values l and l+1, which clears
    l and can only add l-1 and l+1.  The sorts, the greedy extraction and the
    reduced-word walk take their letters through it.  A sort trace's replay
    reads no descents, so it keeps its own entries and pos and swaps them
    without a Residual (SortTrace._rows).
    """

    __slots__ = ("entries", "pos", "priority", "bit", "descents")

    def __init__(self, pi: Permutation, priority: PriorityOrder | None = None):
        n = pi.n
        self.priority = priority = PriorityOrder.resolve(priority, n, "permutation")
        self.entries = list(pi.entries)
        self.pos = pos = [0] * (n + 1)
        for at, value in enumerate(self.entries):
            pos[value] = at
        self.bit = bit = priority.bit
        descents = 0
        for l in range(1, n):
            if pos[l + 1] < pos[l]:
                descents |= bit[l]
        self.descents = descents

    def take(self, letter: int) -> None:
        """Left-multiply by s_letter, for a letter in descents.  Taking it
        again swaps its two values back, but leaves descents to the caller."""
        entries, pos, bit = self.entries, self.pos, self.bit
        i, j = pos[letter], pos[letter + 1]
        entries[i], entries[j] = letter + 1, letter
        pos[letter], pos[letter + 1] = j, i
        # letter moved earlier and letter + 1 later: letter - 1 and letter + 1
        # can become descents, and neither stops being one
        descents = self.descents ^ bit[letter]
        if letter > 1 and j < pos[letter - 1]:
            descents |= bit[letter - 1]
        if letter + 2 < len(pos) and pos[letter + 2] < i:
            descents |= bit[letter + 1]
        self.descents = descents

    def fixes_prefix(self, k: int) -> bool:
        """pi([k]) == [k] setwise; vacuously true for k <= 0 and k >= n."""
        return k <= 0 or k >= len(self.entries) or max(self.entries[:k]) == k


def walk_reduced_words(
    pi: Permutation,
    priority: PriorityOrder | None = None,
    state: Hashable = (),
    advance: Callable[[Hashable, int], Hashable | None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the letters of pi's reduced expressions, depth first.

    A reduced expression of p starts with a left descent l of p and goes on
    with one of s_l * p; the children of a node are tried in the priority's
    order (ascending l by default).  With advance, a product's step_alive
    as every caller's is, the child reached by l carries advance(state, l).
    One Residual holds the current node, whose untried children are its
    descent bits, read lowest first as PriorityOrder.pick reads them:
    stepping down takes the letter, and stepping back up takes it again and
    restores the node's descents.  A node is the identity iff its depth is
    the length of pi; the stack is explicit, so no recursion limit binds.

    A child is skipped, before its letter is taken, if its state is None (a
    component died) or a state whose subtree yielded nothing, so a search
    for one word is bounded by the number of product states, which
    multiplies across components.  The state alone decides a subtree: let
    tau be a node's prefix, pi = tau * sigma.  UP j healthy at column m puts
    j at position m of tau after every smaller value; UP at m accepts some
    word of sigma iff sigma avoids m..k..i, iff pi avoids j..k..i.  Ill at m
    accepts the words without m, so sigma succeeds iff sigma([m]) = [m]
    (parabolic subgroups, Bjorner-Brenti ch. 2), iff tau([m]) = pi([m]); as
    tau([m]) is [j] and m - j values above j that precede j in pi, iff [j]
    lies in pi([m]).  DOWN is the mirror image.  An orientation's u and d
    are disjoint, so the ill components then accept every word of sigma and
    the healthy ones sit at distinct columns, and theorem 2 on sigma makes
    joint success the conjunction.
    """
    rest = Residual(pi, priority)
    order = rest.priority.order
    length = pi.length()
    if not length:
        yield ()
        return
    take = rest.take
    yields = 0
    failed: set[Hashable] = set()
    path: list[int] = []
    # the current node's state, untried descents, descents and the words
    # yielded before it; each ancestor's four wait on the stack
    current, todo, descents, before = state, rest.descents, rest.descents, 0
    stack: list[tuple[Hashable, int, int, int]] = []
    while True:
        while todo:
            low = todo & -todo
            todo ^= low
            letter = order[low.bit_length() - 1]
            nxt = current if advance is None else advance(current, letter)
            if nxt is None or nxt in failed:
                continue
            if len(path) + 1 == length:
                yields += 1
                yield (*path, letter)
                continue
            take(letter)
            stack.append((current, todo, descents, before))
            path.append(letter)
            current, todo, descents, before = nxt, rest.descents, rest.descents, yields
        if not stack:
            return
        if yields == before:
            failed.add(current)
        take(path.pop())
        current, todo, descents, before = stack.pop()
        rest.descents = descents


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

