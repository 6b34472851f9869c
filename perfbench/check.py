"""Reference checker: judges each command's exit code and output.

It shares no code with ``permutree``.  Permutations are tuples of values
1..n in one-line notation; a word (l1, ..., lk) is the product
s_l1 ... s_lk evaluated by right multiplication from the identity, and the
sort's left multiplication by s_l swaps the values l and l+1.

``Checker.check(op, code, out)`` returns ``None`` when the output is right
and a one-line reason otherwise.  Expected counts are cached per orientation
so that repeating a pass does not repeat a brute-force count.
"""
from __future__ import annotations

import itertools
import json
import math
import re

WITNESS = re.compile(r"non-minimal: contains (\d+) \((?:(\d+)ki|ki(\d+))\) at positions (\d+),(\d+),(\d+)\n")
EDGE_COLORS = ("blue", "red", "green", "orange", "purple", "brown", "cyan", "magenta")

# What `permutree verify --suite <name>` prints at its default bound.  The
# csorting suite reports the documented counterexample to the stated claim
# about 41325 and exits 1; every other suite passes.
VERIFY_EXPECTED = {
    "csorting": (
        1,
        "csorting: FAIL (1 counterexamples)\n"
        "  41325 is c-sortable for 4 Coxeter words (3,2,1,4; 3,2,4,1; 3,4,2,1; 4,3,2,1), "
        "not for none\n",
    ),
    "networks": (
        0,
        "networks: no valid network among 768 reduced words of 54321; "
        "known good templates confirmed\nnetworks: pass\n",
    ),
}


def verify_expected(suite: str) -> tuple[int, str]:
    return VERIFY_EXPECTED.get(suite, (0, f"{suite}: pass\n"))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def avoids(pi, u, d) -> bool:
    """No j..k..i (i < j < k) for j in u and no k..i..j for j in d, in O(n).

    UP at j: the first value above j after j must be followed by a value
    below j.  DOWN at j: the last value below j before j must be preceded by
    a value above j.  Both neighbours come from one monotonic-stack pass.
    """
    n = len(pi)
    if not u and not d:
        return True
    pos = [0] * (n + 1)
    for p, v in enumerate(pi):
        pos[v] = p
    if u:
        next_greater = [n] * n
        stack = []
        for p, v in enumerate(pi):
            while stack and pi[stack[-1]] < v:
                next_greater[stack.pop()] = p
            stack.append(p)
        suffix_min = [n + 1] * (n + 1)
        for p in range(n - 1, -1, -1):
            suffix_min[p] = min(pi[p], suffix_min[p + 1])
        for j in u:
            k = next_greater[pos[j]]
            if k < n and suffix_min[k + 1] < j:
                return False
    if d:
        prev_smaller = [-1] * n
        stack = []
        for p in range(n - 1, -1, -1):
            v = pi[p]
            while stack and pi[stack[-1]] > v:
                prev_smaller[stack.pop()] = p
            stack.append(p)
        prefix_max = [0] * (n + 1)
        for p in range(n):
            prefix_max[p + 1] = max(prefix_max[p], pi[p])
        for j in d:
            i = prev_smaller[pos[j]]
            if i >= 0 and prefix_max[i] > j:
                return False
    return True


def pattern_regex(n: int, u, d):
    """One regex matching j..k..i (j in u) or k..i..j (j in d) in a digit string."""
    if n > 9:
        raise ValueError("the pattern regex needs single-digit values")
    parts = [f"{j}.*[{j + 1}-{n}].*[1-{j - 1}]" for j in sorted(u)]
    parts += [f"[{j + 1}-{n}].*[1-{j - 1}].*{j}" for j in sorted(d)]
    return re.compile("|".join(parts)) if parts else None


def parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    parts = text.split() if " " in text else list(text)
    return tuple(int(p) for p in parts)


def perm_text(pi) -> str:
    return "".join(map(str, pi)) if len(pi) <= 9 else " ".join(map(str, pi))


def evaluate(word, n: int) -> tuple[int, ...]:
    """s_l1 ... s_lk as a permutation: right multiplication swaps positions."""
    entries = list(range(1, n + 1))
    for letter in word:
        entries[letter - 1], entries[letter] = entries[letter], entries[letter - 1]
    return tuple(entries)


def inversion_count(pi) -> int:
    """Merge-sort inversion count, O(n log n)."""
    def count(seq):
        if len(seq) < 2:
            return seq, 0
        mid = len(seq) // 2
        left, a = count(seq[:mid])
        right, b = count(seq[mid:])
        merged, inv, i, j = [], a + b, 0, 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                inv += len(left) - i
                j += 1
        merged += left[i:] + right[j:]
        return merged, inv

    return count(list(pi))[1]


def _sort_key(params):
    return (params["n"], params["pi"], params["u"], params["d"], params["priority"])


def set_cell(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def iter_lines(text: str):
    """Lines of a possibly huge string without splitting it all at once."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            yield text[start:]
            return
        yield text[start:end]
        start = end + 1


class Checker:
    def __init__(self):
        # expected counts, and minimal sets for trees (n <= 7; the n = 9
        # sets would weigh on the workload's peak memory)
        self._counts: dict = {}
        self._minimal: dict = {}
        # the last sort whose JSON output passed, as (parameters, output); the
        # raw text is kept because it is far smaller than the parsed rows
        self._checked_json = (None, "")

    def check(self, op, code: int, out: str) -> str | None:
        try:
            return getattr(self, f"_check_{op.cmd}")(op.params, code, out)
        except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    # -- verify -------------------------------------------------------------

    def _check_verify(self, params, code, out):
        want_code, want_out = verify_expected(params["suite"])
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if out != want_out:
            return f"output {out[:200]!r} differs from {want_out[:200]!r}"
        return None

    # -- sort -----------------------------------------------------------------

    def _check_sort(self, params, code, out):
        if params["output"] == "text":
            return self._check_sort_text(params, code, out)
        n, pi = params["n"], params["pi"]
        payload = json.loads(out)
        word, result = payload["word"], parse_perm(payload["result"])
        minimal = avoids(pi, params["u"], params["d"])
        success = result == tuple(range(1, n + 1))
        if payload["success"] is not success or success is not minimal:
            return f"success={payload['success']} but minimal={minimal}, result={payload['result']}"
        if code != (0 if success else 1):
            return f"exit {code} for success={success}"
        if inversion_count(evaluate(word, n)) != len(word):
            return "the sort word is not reduced"
        applied = [s for s in payload["steps"] if s["applied"]]
        if [s["letter"] for s in applied] != word:
            return "applied rows disagree with the word"
        # Replay the rows: each shows the running residual and the sets as
        # moved so far, and the last leaves the result, so word * result = pi.
        # A letter l moves u's l to l+1 and d's l+1 to l; an ill step first
        # drops the endangered l+1 from u and l from d, after prefix checks.
        current, pos = list(pi), [0] * (n + 2)
        for p, v in enumerate(pi):
            pos[v] = p
        u, d = set(params["u"]), set(params["d"])
        for s in payload["steps"]:
            if parse_perm(s["pi"]) != tuple(current):
                return f"row permutation {s['pi'][:40]} is not the running residual"
            if s["u"] != sorted(u) or s["d"] != sorted(d):
                return f"row sets {s['u']} {s['d']} are not the moved sets"
            l = s["letter"]
            endangered = sorted(([l + 1] if l + 1 in u else []) + ([l - 1] if l in d else []))
            want_checks = [[k, k <= 0 or k >= n or max(current[:k]) == k] for k in endangered]
            ok = not endangered and not s["checks"] if s["phase"] == "healthy" else s["checks"] == want_checks
            if not ok:
                return f"row checks {s['checks']} disagree with the sets"
            if not s["applied"]:
                continue
            if s["phase"] == "ill":
                u.discard(l + 1)
                d.discard(l)
            u = {l + 1 if x == l else x for x in u}
            d = {l if x == l + 1 else x for x in d}
            p, q = pos[l], pos[l + 1]
            current[p], current[q], pos[l], pos[l + 1] = l + 1, l, q, p
        if tuple(current) != result:
            return "the sort word times the result is not the input"
        self._checked_json = (_sort_key(params), out)
        return None

    def _check_sort_text(self, params, code, out):
        """The text rows must match the checked JSON rows of the same sort.

        Every text sort directly follows the JSON sort of the same input in
        its workload, so the JSON rendering has been checked already.
        """
        key, text = self._checked_json
        if key != _sort_key(params):
            return "no checked JSON rendering of this sort to compare the table with"
        payload = json.loads(text)
        success = payload["success"]
        if code != (0 if success else 1):
            return f"exit {code} for success={success}"
        lines = iter_lines(out)
        if [h.strip() for h in next(lines).split("|")] != ["pi", "w", "u", "d", "l", "k"]:
            return "unexpected table header"
        if set(next(lines, "")) - {"-", "+"}:
            return "missing header rule"
        taken = ""
        for s in payload["steps"]:
            cells = [c.strip() for c in next(lines, "").split("|")]
            checks = ", ".join(str(k) if ok else f"x{k}" for k, ok in s["checks"]) or "."
            want = [s["pi"], taken or "e", set_cell(s["u"]), set_cell(s["d"]), str(s["letter"]), checks]
            if cells != want:
                return f"text row at {want[0][:40]} differs from the JSON row"
            if s["applied"]:
                taken = f"{taken}.s{s['letter']}" if taken else f"s{s['letter']}"
        if success:
            cells = [c.strip() for c in next(lines, "").split("|")]
            if cells != [payload["result"], taken or "e", "", "", "", ""]:
                return "terminal row differs"
        if next(lines, None) is not None:
            return "extra rows after the trace"
        return None

    # -- check ----------------------------------------------------------------

    def _check_check(self, params, code, out):
        pi, u, d = params["pi"], params["u"], params["d"]
        minimal = avoids(pi, u, d)
        if code != (0 if minimal else 1):
            return f"exit {code} but minimal={minimal}"
        if minimal:
            return None if out == "minimal\n" else f"unexpected output {out[:100]!r}"
        m = WITNESS.fullmatch(out)
        if m is None:
            return f"unexpected output {out[:100]!r}"
        printed, up_j, down_j = m.group(1), m.group(2), m.group(3)
        positions = [int(g) for g in m.groups()[3:]]
        if not 1 <= positions[0] < positions[1] < positions[2] <= len(pi):
            return "witness positions out of order"
        values = [pi[p - 1] for p in positions]
        if printed != "".join(map(str, values)):
            return "witness values do not match its positions"
        if up_j is not None:
            j = int(up_j)
            ok = j in u and values[0] == j and values[2] < j < values[1]
        else:
            j = int(down_j)
            ok = j in d and values[2] == j and values[1] < j < values[0]
        return None if ok else f"witness {out.strip()!r} is not a forbidden subword"

    # -- count ----------------------------------------------------------------

    def expected_count(self, n, u, d) -> int:
        if not u and not d:
            return math.factorial(n)
        if u | d == frozenset(range(2, n)):
            return catalan(n)
        key = (n, u, d)
        if key not in self._counts:
            self._counts[key] = sum(1 for _ in self._minimal_perms(n, u, d))
        return self._counts[key]

    def _check_count(self, params, code, out):
        want = self.expected_count(params["n"], params["u"], params["d"])
        if code != 0 or out != f"{want}\n":
            return f"exit {code} output {out.strip()[:40]!r}, expected {want}"
        return None

    # -- tree -----------------------------------------------------------------

    @staticmethod
    def _minimal_perms(n, u, d):
        """Brute force over S_n (n <= 9), with one regular expression for all patterns."""
        rx = pattern_regex(n, u, d)
        for pi in itertools.permutations(range(1, n + 1)):
            if rx is None or not rx.search("".join(map(str, pi))):
                yield pi

    def minimal_set(self, n, u, d) -> frozenset:
        key = (n, u, d)
        if key not in self._minimal:
            self._minimal[key] = frozenset(self._minimal_perms(n, u, d))
        return self._minimal[key]

    def _check_tree(self, params, code, out):
        if code != 0:
            return f"exit {code}"
        n = params["n"]
        minimal = self.minimal_set(n, params["u"], params["d"])
        if params["output"] == "json":
            return self._check_tree_json(n, minimal, json.loads(out))
        return self._check_tree_dot(n, minimal, out, overlay=params["output"] == "overlay")

    def _check_tree_json(self, n, minimal, nodes):
        words = {}
        for text, perm in nodes.items():
            word = tuple(int(x) for x in text.split(",")) if text else ()
            pi = parse_perm(perm)
            if evaluate(word, n) != pi:
                return f"word {text!r} does not evaluate to {perm}"
            if inversion_count(pi) != len(word):
                return f"word {text!r} is not reduced"
            words[word] = pi
        if set(words.values()) != minimal or len(words) != len(minimal):
            return f"{len(words)} nodes, expected the {len(minimal)} minimal permutations"
        if any(word[:-1] not in words for word in words if word):
            return "node words are not prefix-closed"
        return None

    NODE = re.compile(r'  "([\d ]+)" \[shape=box(, style=bold|, color=gray, fontcolor=gray)?\];')
    EDGE = re.compile(r'  "([\d ]+)" -> "([\d ]+)" \[color=(\w+)(, penwidth=2)?\];')

    def _check_tree_dot(self, n, minimal, out, overlay):
        """Tree nodes are the minimal permutations; colored edges form a tree
        of weak-order covers rooted at the identity; with the overlay, gray
        nodes and edges draw the rest of the weak order exactly once."""
        lines = out.split("\n")
        if lines[:2] != ["digraph tree {", "  rankdir=BT;"] or lines[-2:] != ["}", ""]:
            return "DOT frame differs"
        tree_style, gray_style = (", style=bold", ", color=gray, fontcolor=gray") if overlay else (None, "")
        bold, gray, tree_edges, gray_edges = set(), set(), [], []
        for line in lines[2:-2]:
            node, edge = self.NODE.fullmatch(line), self.EDGE.fullmatch(line)
            if node and node.group(2) == tree_style:
                bold.add(parse_perm(node.group(1)))
            elif node and node.group(2) == gray_style:
                gray.add(parse_perm(node.group(1)))
            elif edge and edge.group(4):
                tree_edges.append((parse_perm(edge.group(1)), parse_perm(edge.group(2)), edge.group(3)))
            elif edge and overlay and edge.group(3) == "gray":
                gray_edges.append((parse_perm(edge.group(1)), parse_perm(edge.group(2))))
            else:
                return f"unexpected DOT line {line[:80]!r}"
        if bold != minimal:
            return f"{len(bold)} tree nodes, expected the {len(minimal)} minimal permutations"
        if overlay and (bold & gray or len(bold) + len(gray) != math.factorial(n)):
            return "the overlay does not draw every permutation once"
        parents = {}
        for a, b, color in tree_edges:
            letter = cover_letter(a, b)
            if letter is None or color != EDGE_COLORS[(letter - 1) % len(EDGE_COLORS)]:
                return f"tree edge {perm_text(a)} -> {perm_text(b)} is not a colored cover"
            if b in parents or a not in minimal or b not in minimal:
                return f"tree edge into {perm_text(b)} breaks the tree"
            parents[b] = a
        if set(parents) != minimal - {tuple(range(1, n + 1))}:
            return "tree edges do not reach every node from the identity"
        if overlay:
            covers = {(a, b) for a, b, _ in tree_edges} | set(gray_edges)
            if len(covers) != len(tree_edges) + len(gray_edges) or len(covers) != math.factorial(n) * (n - 1) // 2:
                return "the overlay does not draw every weak-order cover once"
            if any(cover_letter(a, b) is None for a, b in gray_edges):
                return "a gray edge is not a weak-order cover"
        return None


def cover_letter(a, b):
    """l when b = a * s_l is one longer than a (positions l, l+1 swapped upwards), else None."""
    diff = [p for p in range(len(a)) if a[p] != b[p]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return None
    p = diff[0]
    if not (a[p] == b[p + 1] and a[p + 1] == b[p] and a[p] < a[p + 1]):
        return None
    return p + 1
