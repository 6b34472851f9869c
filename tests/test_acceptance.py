"""
Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete, or via the command line: `permutree verify --suite all`.

Every criterion is exact (zero tolerance); the stated bounds are the ones
enforced here.
"""
import random

import pytest

import oracles
from permutree import core, sorting, trees, verify
from permutree.automata import Status
from permutree.core import Permutation, Word
from permutree.sorting import PriorityOrder
from permutree.coxeter import (
    CoxeterWord,
    all_coxeter_words,
    c_factorization,
    c_sorting_word,
    is_c_sortable,
    orientation_of,
)
from permutree.verify import (
    check_counting,
    check_csorting,
    check_end_state_stats,
    check_golden_tables,
    check_networks,
    check_prefix_closure,
    check_stack_sort,
    check_theorem_product,
    check_theorem_single,
    check_unique_final_state,
    final_vectors,
)
from oracles import (
    oracle_check_csorting,
    oracle_check_end_state_stats,
    oracle_check_networks,
    oracle_check_prefix_closure,
    oracle_check_theorem_product,
    oracle_check_theorem_single,
    oracle_check_unique_final_state,
    oracle_final_vectors,
    refuse_everywhere,
    slow,
)

P = Permutation.from_text


def report(criterion, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}")
    assert not violations, violations[:10]


def test_criterion_01_single_automaton_equivalence():
    report("1 single-automaton acceptance iff avoidance (n<=5)", check_theorem_single(5))


def test_criterion_02_intersection_equivalence():
    report("2 intersection acceptance iff avoidance, all disjoint orientations (n<=5)",
           check_theorem_product(5))


def test_criterion_03_golden_tables():
    report("3 worked sorting tables reproduced", check_golden_tables())


def test_criterion_04_reduced_expression_statistics():
    report("4 end-state statistics of worked examples", check_end_state_stats())


def test_criterion_05_unique_final_state_and_column():
    report("5 unique final state and column formula (n<=5)", check_unique_final_state(5))


def test_criterion_06_counting():
    violations = check_counting(5)
    counts_4 = [14] * 4
    from permutree.verify import partition_orientations
    from permutree.trees import count_minimal

    got_4 = [count_minimal(o) for o in partition_orientations(4)]
    got_5 = [count_minimal(o) for o in partition_orientations(5)]
    if got_4 != counts_4:
        violations.append(f"n=4 partition counts {got_4}")
    if got_5 != [42] * 8:
        violations.append(f"n=5 partition counts {got_5}")
    report("6 partition orientations count Catalan, empty counts all (n<=5)", violations)


# the one line `check_csorting` reports by design: it refutes the stated
# claim that 41325 is c-sortable for no Coxeter word of S_5
REFUTATION_41325 = (
    "41325 is c-sortable for 4 Coxeter words "
    "(3,2,1,4; 3,2,4,1; 3,4,2,1; 4,3,2,1), not for none"
)


def test_criterion_07_coxeter_sorting_equivalences():
    reported = check_csorting(5)
    violations = [v for v in reported if v != REFUTATION_41325]
    if reported.count(REFUTATION_41325) != 1:
        violations.append(
            f"refutation of the 41325 claim reported "
            f"{reported.count(REFUTATION_41325)} times, expected once"
        )
    report("7 five-way sortability equivalence, all Coxeter words (n<=5)", violations)


def test_criterion_07_nonsortable_as_stated():
    # The criterion as first stated claimed that 41325 is c-sortable for none
    # of the 24 Coxeter words of S_5.  That expected value (the empty set)
    # contradicts the paper's theorem: (U,D)-permutree sorting fails exactly
    # when pi contains jki for some j in U or kij for some j in D, and
    # c-sorting is the case where (U,D) is read off the word c.  The set below
    # is derived three ways, none of them through `is_c_sortable`:
    # - patterns: 41325 has no jki subword, and its only kij subwords are 412
    #   (j=2) and 413 (j=3), so c sorts it exactly when 2 and 3 are in U, that
    #   is when s3 comes before s2 and s2 before s1 in c; four of the 24 words
    #   do so, one for each position of s4;
    # - stack sorting: a stack outputs 12345 from 41325, so the staircase
    #   c = s4.s3.s2.s1, which is Knuth's stack sort, sorts it;
    # - by hand, for c = s4.s3.s2.s1: the blocks are {1,2,3} then {3}, they
    #   are nested, and the sorting word is s3.s2.s1.s3.
    # The impossibility statement holds for 41352 (criterion 7c).
    expected = {"3,2,1,4", "3,2,4,1", "3,4,2,1", "4,3,2,1"}
    pi = P("41325")
    sortable_for = {str(c) for c in all_coxeter_words(5) if is_c_sortable(pi, c)}
    staircase = CoxeterWord(Word((4, 3, 2, 1), 5))
    blocks = c_factorization(pi, staircase)
    word = c_sorting_word(pi, staircase).letters
    violations = []
    if sortable_for != expected:
        violations.append(f"41325 sortable for {sorted(sortable_for)}, expected {sorted(expected)}")
    if blocks != (frozenset({1, 2, 3}), frozenset({3})):
        violations.append(f"blocks of 41325 under c=4,3,2,1: {blocks}")
    if word != (3, 2, 1, 3):
        violations.append(f"sorting word of 41325 under c=4,3,2,1: {word}")
    report("7b 41325 sortable for exactly the words with s3, s2, s1 in order", violations)


def test_criterion_07_companion_derived_statement():
    # the corrected fact the derivation supports
    violations = []
    if any(is_c_sortable(P("41352"), c) for c in all_coxeter_words(5)):
        violations.append("41352 sortable for some Coxeter word")
    report("7c companion: 41352 sortable for no Coxeter word", violations)


def test_criterion_08_sorting_networks():
    report("8 no reduced expression of 54321 decides ({2},{4}); known templates valid",
           check_networks())


@pytest.mark.parametrize(
    "minimal, lines",
    [
        (lambda pi, orientation: True, 2),
        (lambda pi, orientation: False, 594),
        (lambda pi, orientation: pi.entries[0] % 2 == 0, 594),
    ],
    ids=["always", "never", "even_first"],
)
def test_networks_suite_matches_the_full_scan_oracle(monkeypatch, minimal, lines):
    # the suite asks the two witnesses first and scans S_5 only for a template
    # they leave unrefuted; under a wrong minimality test it must still report
    # what scanning every template first reports, line for line
    monkeypatch.setattr(sorting, "is_minimal", minimal)
    violations = check_networks()
    assert violations == oracle_check_networks()
    assert len(violations) == lines


def test_criterion_09_stack_sorting():
    report("9 stack-sorting equivalences and Catalan counts (n<=7)", check_stack_sort(7))


def test_stack_sort_suite_scans_231_independently(monkeypatch):
    # a wrong minimality test, or a wrong subword scan under it, leaves the
    # suite's own 231 scan alone, so avoid and minimal disagree on 231-containers
    with monkeypatch.context() as patch:
        patch.setattr(verify, "is_minimal", lambda pi, orientation: True)
        wrong_minimal = check_stack_sort(4)
    with monkeypatch.context() as patch:
        patch.setattr(core, "pattern_masks", lambda pi: (0, 0))
        wrong_scan = check_stack_sort(4)
    for violations in (wrong_minimal, wrong_scan):
        # 231 itself and the ten 231-containers of S_4
        assert len(violations) == 11, violations
        assert all("stack=False avoid=False minimal=True" in line for line in violations)


def test_criterion_10_prefix_closure():
    report(
        "10 accepted iff every prefix sortable; lexmin words prefix-closed (n<=5)",
        check_prefix_closure(5),
    )


def test_prefix_suite_matches_the_per_orientation_oracle():
    # one step of each word through the full vector, read under a bitmask per
    # orientation, reports what re-stepping it per orientation reports
    assert check_prefix_closure(5) == oracle_check_prefix_closure(5) == []


@pytest.mark.parametrize(
    "minimal, lines",
    [
        (lambda pi, orientation: True, 48),
        (lambda pi, orientation: False, 309),
        (lambda pi, orientation: pi.entries[0] % 2 == 0, 154),
        (lambda pi, orientation: not core.is_minimal(pi, orientation), 357),
    ],
    ids=["always", "never", "even_first", "negated"],
)
def test_prefix_suite_matches_the_oracle_under_a_wrong_minimality(monkeypatch, minimal, lines):
    monkeypatch.setattr(verify, "is_minimal", minimal)
    violations = check_prefix_closure(4)
    assert violations == oracle_check_prefix_closure(4)
    assert len(violations) == lines


def test_prefix_suite_steps_each_final_vector_once_per_descent(monkeypatch):
    # the pass steps the final vectors of pi * s_l by l once, over the right
    # descents l of pi, not once per orientation or per reduced word
    finals = {pi: finals for n in range(2, 5) for pi, finals in final_vectors(n)}
    steps = sum(
        len(finals[oracles.right_multiply(pi, l)])
        for pi in finals
        for l in range(1, pi.n)
        if pi.entries[l - 1] > pi.entries[l]
    )
    calls = []
    step_product = verify.step_product

    def counted(rows, product, letter):
        calls.append(letter)
        return step_product(rows, product, letter)

    monkeypatch.setattr(verify, "step_product", counted)
    check_prefix_closure(4)
    assert len(calls) == steps == 55


def test_both_weak_order_passes_take_their_covers_from_one_walk(monkeypatch):
    # final_vectors and the prefix suite each read verify.weak_order once per
    # degree, rather than writing out the recurrence over the weak order again
    walked = []
    weak_order = verify.weak_order

    def counted(n):
        walked.append(n)
        return weak_order(n)

    monkeypatch.setattr(verify, "weak_order", counted)
    assert len(list(final_vectors(4))) == 24
    assert walked == [4]
    assert check_prefix_closure(4) == []
    assert walked == [4, 2, 3, 4]


def test_prefix_suite_reads_minimality(monkeypatch):
    # acceptance of w.l is tied to the minimality of its permutation, so a
    # wrong minimality test shows up as words whose verdicts disagree
    monkeypatch.setattr(verify, "is_minimal", lambda pi, orientation: True)
    violations = check_prefix_closure(4)
    assert violations
    assert all("minimal=True" in line and "accepted=False" in line for line in violations)


def natural_tree(orientation, priority):
    # a tree grown under the natural priority, whatever the priority asked
    return trees.generating_tree(orientation, PriorityOrder.natural(orientation.n))


def empty_tree(orientation, priority):
    # every lexmin table entry then prints as a line of its own
    return trees.GeneratingTree((), (), orientation, priority)


def test_prefix_suite_reports_each_violation_once(monkeypatch):
    # under 2,1 the natural tree gives 321 the word 1,2,1.  S_3 has two orders
    # of its letters, so the seeded shuffles repeat one, and each distinct
    # priority must be checked, and its violations reported, once
    monkeypatch.setattr(verify, "generating_tree", natural_tree)
    violations = check_prefix_closure(3)
    line = "n=3 priority=(2, 1) u=[] d=[]: tree word 1,2,1 of 321 is not its lexmin word 2,1,2"
    assert violations.count(line) == 1, violations


def test_prefix_suite_checks_each_word_against_its_parent(monkeypatch):
    # each table checked gives 4321 its lexicographically last reduced word
    # instead of its lexmin word, under every priority and orientation (4321 is
    # minimal for each): that word's parent is not the word of its own permutation
    w0 = Permutation((4, 3, 2, 1))
    last = max(core.iter_reduced_words(w0), key=lambda word: word.letters)
    table_violations = verify.table_violations

    def wrong(table, orientation, priority):
        if w0.entries in table:
            table[w0.entries] = tuple(map(priority.rank.__getitem__, last.letters))
        return table_violations(table, orientation, priority)

    monkeypatch.setattr(verify, "table_violations", wrong)
    violations = check_prefix_closure(4)
    parent = Word(last.letters[:-1], 4)
    expected = (
        f"n=4 priority=(1, 2, 3) u=[] d=[]: "
        f"prefix {parent} of {last} is not the word of {oracles.evaluate(parent)}"
    )
    assert expected in violations
    # where the wrong word's parent happens to be right (under the priority
    # 3,1,2), only the comparison with the generating tree sees the fault
    mismatch = f"of 4321 is not its lexmin word {last}"
    assert f"n=4 priority=(3, 1, 2) u=[] d=[]: tree word 3,1,2,3,1,2 {mismatch}" in violations
    assert all(
        f"prefix {parent} of {last} is not" in line or line.endswith(mismatch) for line in violations
    ), violations


def test_prefix_suite_grows_one_tree_per_table(monkeypatch):
    # each (priority, orientation) table is compared with its own tree, grown
    # once, in the order the suite draws them, and never once per permutation
    grown = []

    def counted(orientation, priority):
        grown.append((priority, orientation))
        return trees.generating_tree(orientation, priority)

    monkeypatch.setattr(verify, "generating_tree", counted)
    assert check_prefix_closure(4) == []
    rng = random.Random(verify.PREFIX_SEED)
    expected = []
    for n in range(2, 5):
        shuffles = [PriorityOrder.shuffled(n, rng) for _ in range(verify.PREFIX_SHUFFLES)]
        priorities = dict.fromkeys([PriorityOrder.natural(n), *shuffles])
        expected += [(p, o) for p in priorities for o in verify.disjoint_orientations(n)]
    assert grown == expected
    assert len(grown) == 1 + 2 * 3 + 3 * 9


def test_prefix_suite_builds_no_object_it_does_not_print(monkeypatch):
    # a passing run keeps its tables as rank tuples keyed by entries: the only
    # Permutations are those of all_permutations, and the only Words the trees' nodes
    built = {Permutation: 0, Word: 0}
    for cls in built:
        post_init = cls.__post_init__

        def counted(self, cls=cls, post_init=post_init):
            built[cls] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    nodes = []

    def grown(orientation, priority):
        tree = trees.generating_tree(orientation, priority)
        nodes.append(len(tree.nodes))
        return tree

    monkeypatch.setattr(verify, "generating_tree", grown)
    assert check_prefix_closure(4) == []
    assert built[Permutation] == 2 + 6 + 24
    assert built[Word] == sum(nodes) == 490


def test_prefix_suite_reads_the_entries_the_tree_keeps(monkeypatch):
    # each tree is keyed by the entries its nodes keep, not by evaluating
    # their words: a tree whose first two children swap their entries while
    # their words stay right shows as the two lines of that swap, for every
    # priority and orientation of S_3 (S_2's trees have one child, and stay whole)
    def swapped_tree(orientation, priority):
        tree = trees.generating_tree(orientation, priority)
        entries = list(tree.entries)
        if len(entries) > 2:
            entries[1], entries[2] = entries[2], entries[1]
        return trees.GeneratingTree(tree.nodes, tuple(entries), orientation, priority)

    monkeypatch.setattr(verify, "generating_tree", swapped_tree)
    violations = check_prefix_closure(3)
    swap = ["tree word 1 of 132 is not its lexmin word 2", "tree word 2 of 213 is not its lexmin word 1"]
    assert len(violations) >= 2 * 3
    assert [line.split(": ", 1)[1] for line in violations] == swap * (len(violations) // 2)


def test_prefix_suite_searches_no_reduced_word(monkeypatch):
    # a passing run reads its pairs and lexmin table off the weak-order pass:
    # no lexmin_word search, and no reduced word enumerated anywhere
    refuse_everywhere(
        monkeypatch, "lexmin_word", "all_reduced_words", "iter_reduced_words", "walk_reduced_words"
    )
    assert check_prefix_closure(4) == []


@pytest.mark.parametrize(
    "tree, n, lines",
    [(natural_tree, 4, 134), (empty_tree, 4, 490), (empty_tree, 5, 7018)],
    ids=["natural4", "empty4", "empty5"],
)
def test_prefix_suite_matches_the_oracle_under_a_wrong_tree(monkeypatch, tree, n, lines):
    # the table the pass reads off the weak order is the one lexmin_word searches
    monkeypatch.setattr(verify, "generating_tree", tree)
    monkeypatch.setattr(oracles, "generating_tree", tree)
    violations = check_prefix_closure(n)
    assert violations == oracle_check_prefix_closure(n)
    assert len(violations) == lines


@pytest.mark.parametrize("n", [slow(6)])
def test_prefix_suite_tables_every_lexmin_word(monkeypatch, n):
    # under an empty tree each table entry prints as a line: at n = 6 they are
    # lexmin_word's 77,184 answers, without the oracle's per-word half
    monkeypatch.setattr(verify, "generating_tree", empty_tree)
    rng = random.Random(verify.PREFIX_SEED)
    for degree in range(2, n + 1):  # the suite draws its priorities degree by degree
        shuffles = [PriorityOrder.shuffled(degree, rng) for _ in range(verify.PREFIX_SHUFFLES)]
    expected = [
        f"n={n} priority={priority.order} u={sorted(orientation.u)} d={sorted(orientation.d)}: "
        f"tree word None of {pi} is not its lexmin word {word}"
        for priority in dict.fromkeys([PriorityOrder.natural(n), *shuffles])
        for orientation in verify.disjoint_orientations(n)
        for pi in core.all_permutations(n)
        if (word := trees.lexmin_word(pi, orientation, priority)) is not None
    ]
    assert len(expected) == 77184
    assert [line for line in check_prefix_closure(n) if line.startswith(f"n={n} ")] == expected


@pytest.mark.parametrize("n", [slow(6)])
def test_prefix_suite_at_its_opt_in_bound(n):
    assert verify.run_suite("prefix", n) == []


@pytest.mark.parametrize("n", [slow(6)])
def test_csorting_suite_at_its_opt_in_bound(n):
    assert verify.run_suite("csorting", n) == [REFUTATION_41325]


def test_csorting_suite_enumerates_no_reduced_words():
    # every condition of the suite is a search or a scan: none looks the
    # reduced words up, so the enumeration cache sees no traffic
    cache = core.all_reduced_words
    before = cache.cache_info()
    verify.run_suite("csorting", 5)
    after = cache.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_csorting_suite_builds_the_final_states_once_per_degree(monkeypatch):
    # conditions 3-4 of every Coxeter word and permutation of a degree read
    # the dead masks of one final_vectors pass
    degrees = []

    def counting(n):
        degrees.append(n)
        return final_vectors(n)

    monkeypatch.setattr(verify, "final_vectors", counting)
    assert verify.run_suite("csorting", 4) == []
    assert degrees == [2, 3, 4]


def test_end_state_suite_builds_the_final_states_once_per_degree(monkeypatch):
    # the five cases of S_4 and S_5 read one final_vectors pass per degree
    degrees = []

    def counting(n):
        degrees.append(n)
        return final_vectors(n)

    monkeypatch.setattr(verify, "final_vectors", counting)
    assert check_end_state_stats() == []
    assert degrees == [4, 5]


def test_csorting_suite_line_formats(monkeypatch):
    # a minimality test that answers wrongly for 2413 and 3142 flips condition 5
    # alone for them: each Coxeter word reports both, in the order of S_4,
    # and then its count wherever a sortable one lost condition 5
    wrong = {P("2413"), P("3142")}
    minimal = verify.is_minimal

    def flipped(pi, orientation):
        return minimal(pi, orientation) != (pi in wrong)

    monkeypatch.setattr(verify, "is_minimal", flipped)
    sortable = "(True, True, True, True, False)"
    unsortable = "(False, False, False, False, True)"
    assert check_csorting(4) == [
        f"n=4 c=1,2,3: pi=2413 conditions={unsortable}",
        f"n=4 c=1,2,3: pi=3142 conditions={unsortable}",
        f"n=4 c=1,3,2: pi=2413 conditions={sortable}",
        f"n=4 c=1,3,2: pi=3142 conditions={unsortable}",
        "n=4 c=1,3,2: 13 sortable != 14",
        f"n=4 c=2,1,3: pi=2413 conditions={unsortable}",
        f"n=4 c=2,1,3: pi=3142 conditions={sortable}",
        "n=4 c=2,1,3: 13 sortable != 14",
        f"n=4 c=2,3,1: pi=2413 conditions={unsortable}",
        f"n=4 c=2,3,1: pi=3142 conditions={sortable}",
        "n=4 c=2,3,1: 13 sortable != 14",
        f"n=4 c=3,1,2: pi=2413 conditions={sortable}",
        f"n=4 c=3,1,2: pi=3142 conditions={unsortable}",
        "n=4 c=3,1,2: 13 sortable != 14",
        f"n=4 c=3,2,1: pi=2413 conditions={unsortable}",
        f"n=4 c=3,2,1: pi=3142 conditions={unsortable}",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, slow(6)])
def test_final_vectors_count_the_final_states_of_every_reduced_word(n):
    # the weak-order pass gives each permutation, in the order of S_n, the
    # multiset of final vectors that stepping each reduced word on its own gives
    got = list(final_vectors(n))
    assert [pi for pi, _ in got] == list(core.all_permutations(n))
    for pi, finals in got:
        assert finals == oracle_final_vectors(pi), pi


# The suites that read final_vectors, with their per-word bodies.  csorting
# is capped at 5 and endstats has a fixed size, so both run only at 5.
FINAL_STATE_ORACLES = {
    "theorem1": oracle_check_theorem_single,
    "theorem2": oracle_check_theorem_product,
    "uniquestate": oracle_check_unique_final_state,
    "csorting": oracle_check_csorting,
    "endstats": oracle_check_end_state_stats,
}

true_ninv_stats = core.ninv_stats
FAULTS = {
    "contains_pattern": lambda pi, j, kind: pi.entries[0] % 2 == 0,
    "is_minimal": lambda pi, orientation: pi.entries[0] % 2 == 0,
    "ninv_stats": lambda pi, j: true_ninv_stats(pi, j)[::-1],
}


@pytest.mark.parametrize(
    "fault, lines",
    [(None, 1), ("contains_pattern", 370), ("is_minimal", 3384), ("ninv_stats", 707)],
)
@pytest.mark.parametrize("n", [5, slow(6)])
def test_final_state_suites_match_their_per_word_oracles(monkeypatch, n, fault, lines):
    # under each injected fault the suites report, line for line, what
    # enumerating or searching every reduced word reports; the oracles read
    # the faulted predicate off the verify module too
    if fault is not None:
        monkeypatch.setattr(verify, fault, FAULTS[fault])
    reported = 0
    for name, oracle in FINAL_STATE_ORACLES.items():
        if name == "endstats":
            got, want = check_end_state_stats(), oracle()
        elif n <= verify.SUITES[name][2]:
            got, want = verify.run_suite(name, n), oracle(n)
        else:
            continue
        assert got == want, name
        reported += len(got)
    if n == 5:
        assert reported == lines


def test_final_state_suites_enumerate_and_search_no_reduced_word(monkeypatch):
    # at their default bounds they read final_vectors alone, and report as usual
    enumerations = ("all_reduced_words", "iter_reduced_words", "walk_reduced_words")
    refuse_everywhere(monkeypatch, *enumerations, "exists_accepted")
    reported = {name: verify.run_suite(name) for name in FINAL_STATE_ORACLES}
    expected = {name: [] for name in FINAL_STATE_ORACLES}
    assert reported == {**expected, "csorting": [REFUTATION_41325]}


@pytest.mark.parametrize("n", [slow(7)])
@pytest.mark.parametrize("name", ["theorem1", "theorem2", "uniquestate"])
def test_final_state_suites_at_their_opt_in_bound(name, n):
    assert verify.run_suite(name, n) == []


# The violation lines a passing run never prints, each reached by one
# injected fault on the verify module, or by a wrong expected value.


def test_golden_tables_suite_failure_lines(monkeypatch):
    rows = [("3421", 2, 2), ("2431", 3, 1), ("1432", 3, 3), ("1342", 4, 2), ("1243", 4, 3)]
    wrong = {"pi": "3421", "j": 2, "rows": rows[:-1], "word": (2, 1, 3, 2), "final": "1234"}
    monkeypatch.setattr(verify, "GOLDEN_SINGLE", [wrong])
    assert check_golden_tables() == [
        f"single 3421: rows {rows} != {rows[:-1]}",
        "single 3421: word 2,1,3,2,3 final 1234",
    ]


def test_end_state_suite_failure_lines(monkeypatch):
    monkeypatch.setattr(verify, "END_STATE_CASES", [("4312", 2, 6, {("healthy", 4): 6})])
    assert check_end_state_stats() == [
        "4312: 5 reduced expressions, expected 6",
        "4312: final-state counts {('healthy', 4): 5} != {('healthy', 4): 6}",
    ]


def finals_replaced(pi, finals):
    """final_vectors with the finals of one permutation replaced; in S_3 a
    vector holds the codes of the UP and the DOWN automaton at j = 2."""
    return lambda n: ((p, finals if p == pi else f) for p, f in final_vectors(n))


def test_unique_state_suite_failure_lines(monkeypatch):
    # 321 has one inversion above 2 and one below it, and 213 one above:
    # UP code 3 is healthy and 4 ill in column 3, 1 ill and 2 dead in
    # column 2; DOWN code 4 is ill in column 1, 3 healthy there, 2 dead in 2
    healthy, ill = (3, Status.HEALTHY), (3, Status.ILL)
    monkeypatch.setattr(verify, "final_vectors", finals_replaced(P("321"), {(3, 4): 1, (4, 2): 1}))
    # listed by column, then by status in Status order, whatever the hash seed
    assert check_unique_final_state(3) == [f"n=3 pi=321 j=2 up: {{{healthy}, {ill}}}"]
    monkeypatch.setattr(verify, "final_vectors", finals_replaced(P("321"), {(1, 4): 1, (3, 2): 1, (4, 2): 1}))
    assert check_unique_final_state(3) == [f"n=3 pi=321 j=2 up: {{{(2, Status.ILL)}, {healthy}, {ill}}}"]
    monkeypatch.setattr(verify, "final_vectors", finals_replaced(P("213"), {(1, 3): 1, (2, 3): 1}))
    assert check_unique_final_state(3) == ["n=3 pi=213 j=2 up: common-state case violated"]
    monkeypatch.setattr(verify, "final_vectors", finals_replaced(P("321"), {(3, 4): 1}))
    assert check_unique_final_state(3) == ["n=3 pi=321 j=2 up: accepted state not ill"]


def test_counting_suite_failure_lines(monkeypatch):
    monkeypatch.setattr(verify, "catalan", lambda n: 0)
    assert check_counting(3) == ["n=2 u=[] d=[]: 2 != 0", "n=3 u=[2] d=[]: 5 != 0", "n=3 u=[] d=[2]: 5 != 0"]
    monkeypatch.undo()
    count = verify.count_minimal
    monkeypatch.setattr(verify, "count_minimal", lambda o: count(o) + (not o.u and not o.d))
    # S_2's one partition orientation is the empty one
    assert check_counting(3) == [
        "n=2 u=[] d=[]: 3 != 2",
        "n=2: empty orientation count != 2",
        "n=3: empty orientation count != 6",
    ]


def test_stack_sort_suite_count_line(monkeypatch):
    monkeypatch.setattr(verify, "catalan", lambda n: 0)
    assert check_stack_sort(3) == ["n=2: 2 stack-sortable != C_n=0", "n=3: 5 stack-sortable != C_n=0"]


def test_csorting_suite_4213_lines(monkeypatch):
    # s1 alone makes the UP automaton at 2 ill, so it is accepted
    monkeypatch.setattr(verify, "c_sorting_word", lambda pi, c: Word((1,), pi.n))
    assert check_csorting(4) == [
        "sorting word of 4213: 1",
        "sorting word of 4213 unexpectedly accepted",
    ]


def test_networks_suite_failure_lines(monkeypatch):
    w0 = Word((1, 2, 1, 3, 2, 1, 4, 3, 2, 1), 5)
    monkeypatch.setattr(verify, "all_reduced_words", lambda pi: frozenset({w0}))
    monkeypatch.setattr(verify, "network_mismatch", lambda template, orientation, pi: False)
    monkeypatch.setattr(verify, "check_sorting_network", lambda template, orientation: None)
    assert check_networks() == [
        "54321 has 1 reduced words, expected 768",
        f"valid network found: {w0}",
        f"{w0} not refuted by the two witnesses",
    ]
