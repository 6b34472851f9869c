"""
Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete, or via the command line: `permutree verify --suite all`.

Every criterion is exact (zero tolerance); the stated bounds are the ones
enforced here.
"""
from permutree import core, verify
from permutree.core import Permutation, Word
from permutree.coxeter import (
    CoxeterWord,
    all_coxeter_words,
    c_factorization,
    c_sorting_word,
    is_c_sortable,
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

    got_4 = [count_minimal(4, o) for o in partition_orientations(4)]
    got_5 = [count_minimal(5, o) for o in partition_orientations(5)]
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
    blocks = c_factorization(pi, staircase).blocks
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


def test_criterion_09_stack_sorting():
    report("9 stack-sorting equivalences and Catalan counts (n<=7)", check_stack_sort(7))


def test_stack_sort_suite_scans_231_independently(monkeypatch):
    # a wrong minimality test, or a wrong subword scan under it, leaves the
    # suite's own 231 scan alone, so avoid and minimal disagree on 231-containers
    with monkeypatch.context() as patch:
        patch.setattr(verify, "is_minimal", lambda pi, orientation: True)
        wrong_minimal = check_stack_sort(4)
    with monkeypatch.context() as patch:
        for module in (core, verify):
            patch.setattr(module, "contains_pattern", lambda pi, j, kind: False)
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


def test_prefix_suite_reads_minimality(monkeypatch):
    # acceptance of w.l is tied to the minimality of its permutation, so a
    # wrong minimality test shows up as words whose verdicts disagree
    monkeypatch.setattr(verify, "is_minimal", lambda pi, orientation: True)
    violations = check_prefix_closure(4)
    assert violations
    assert all("minimal=True" in line and "accepted=False" in line for line in violations)


def test_csorting_suite_enumerates_no_reduced_words():
    # every condition of the suite is a search or a scan: none looks the
    # reduced words up, so the enumeration cache sees no traffic
    cache = core.all_reduced_words
    before = cache.cache_info()
    verify.run_suite("csorting", 5)
    after = cache.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
