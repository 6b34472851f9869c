import argparse
import collections
import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import permutree
from permutree import Orientation, Permutation, PriorityOrder, cli, permutree_sort, verify
from permutree.cli import (
    MAX_AUTOMATON_N,
    MAX_CHECK_N,
    MAX_COUNT_ALL_N,
    MAX_COUNT_N,
    MAX_NETWORK_N,
    MAX_SORT_N,
    MAX_SORT_TEXT_N,
    MAX_TREE_NODES,
    MAX_TREE_OVERLAY_N,
    main,
)
from permutree.trees import count_minimal
from oracles import slow, written


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sort_success(capsys):
    code, out, _ = run_cli(capsys, "sort", "--n", "5", "--u", "2", "--d", "4", "54213")
    assert code == 0
    assert "12345" in out
    assert "s3.s2.s1.s4.s3.s2.s1.s3" in out


def test_sort_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "sort", "--n", "5", "--u", "2", "--d", "4", "15342")
    assert code == 1
    assert "14235" in out


def test_sort_rejects_non_permutation(capsys):
    code, _, err = run_cli(capsys, "sort", "--n", "4", "12344")
    assert code == 2
    assert "error" in err


def test_sort_rejects_wrong_degree(capsys):
    code, _, err = run_cli(capsys, "sort", "--n", "5", "1234")
    assert code == 2


def test_sort_json(capsys):
    code, out, _ = run_cli(
        capsys, "sort", "--n", "4", "--u", "3", "--d", "2", "--output", "json", "3214"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == [1, 2, 1]
    assert payload["success"] is True


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("n", [5, 12, 60])
def test_streamed_sort_is_the_rendered_trace(capsys, n, output):
    # sort writes the trace to stdout piece by piece; the stream is the
    # library's string byte for byte, under the empty, a sparse and the
    # alternating orientation, each with a seeded pi and priority
    rng = random.Random(20261020 + n)
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    pi = Permutation(tuple(entries))
    up, down = rng.sample(range(2, n), 2)
    parity = rng.randrange(2)
    odd = {j for j in range(2, n) if j % 2 == parity}
    for u, d in ((set(), set()), ({up}, {down}), (odd, set(range(2, n)) - odd)):
        priority = PriorityOrder.shuffled(n, rng)
        trace = permutree_sort(pi, Orientation(u, d, n), priority)
        want = written(trace.to_table) if output == "text" else written(trace.to_json) + "\n"
        u_text, d_text, order = (",".join(map(str, values)) for values in (u, d, priority.order))
        code, out, err = run_cli(
            capsys, "sort", "--n", str(n), f"--u={u_text}", f"--d={d_text}", f"--priority={order}",
            "--output", output, str(pi),
        )
        assert (code, err) == (0 if trace.success else 1, "")
        assert out == want, (u, d)


class Hashing:
    """A stdout stand-in that keeps only the sha256 and the length of what it gets."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.size = 0

    def write(self, text):
        self.hash.update(text.encode())
        self.size += len(text)

    def flush(self):
        pass


def cap_size_pi(n):
    """The sorts' permutation at these sizes: a shuffle of 1..n, seeded with 1."""
    entries = list(range(1, n + 1))
    random.Random(1).shuffle(entries)
    return ",".join(map(str, entries))


@pytest.mark.parametrize(
    "argv, code, digest, size",
    [
        (
            ["sort", "--n", "200", "--output", "text"], 0,
            "fe6342fc90f17b6047f3001a99754fe9220c2f677b2df35ad9f720124ff3fb23", 420_618_471,
        ),
        (
            ["sort", "--n", "200", "--output", "json"], 0,
            "b099af2b2f68624088f2bd215c6b000507bfe4273ae30d74fc7424b99261c5a0", 7_662_138,
        ),
        (["verify", "--suite", "all"], 1, "6b715840b71ab71bfcdc96606972215d586807fc84cad586025c956e67125559", 355),
        (
            ["sort", "--n", str(MAX_SORT_N), "--output", "json"], 0,
            "679d52ffbc7a9d7e49659c718c3308a9af4322c06fa69a245ba2ce913e874307", 65_688_958,
        ),
    ],
    ids=["sort-text", "sort-json", "verify-all", "sort-json-cap"],
)
def test_cap_size_outputs_keep_their_digests(monkeypatch, argv, code, digest, size):
    # The n = 200 table is 420 MB, so stdout is hashed as it is written and
    # never held.  Its word is about 42 blocks of sorting._WORD_BLOCK wide, so
    # its rows cross block boundaries at the real block size.  The JSON at
    # sort's cap, n = 400, is 66 MB, and each of its rows' pi texts joins 20
    # blocks of 20 values.
    if argv[0] == "sort":
        argv = [*argv, cap_size_pi(int(argv[2]))]
    out = Hashing()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == code
    assert (out.hash.hexdigest(), out.size) == (digest, size)


def test_check_minimal(capsys):
    code, out, _ = run_cli(capsys, "check", "--n", "5", "--u", "3", "42135")
    assert code == 0
    assert out.strip() == "minimal"


def test_check_non_minimal_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "--n", "5", "--d", "3", "42135")
    assert code == 1
    assert "423" in out
    assert "ki3" in out


def test_check_trivial(capsys):
    code, out, _ = run_cli(capsys, "check", "--n", "4", "1234")
    assert code == 0


def test_sort_with_priority(capsys):
    code, out, _ = run_cli(
        capsys, "sort", "--n", "5", "--u", "2", "--d", "4", "--priority", "4,3,2,1", "54213"
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "sort", "--n", "5", "--priority", "2,1,3", "54213"
    )
    assert code == 2


def test_degenerate_degree_one(capsys):
    code, out, _ = run_cli(capsys, "sort", "--n", "1", "1")
    assert code == 0
    code, out, _ = run_cli(capsys, "count", "--n", "1", "--u", "", "--d", "")
    assert code == 0
    assert out.strip() == "1"


def test_count_single(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--u", "2,3")
    assert code == 0
    assert out.strip() == "14"


def test_count_empty_sets(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--u", "", "--d", "")
    assert code == 0
    assert out.strip() == "24"


def test_count_table(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # 3^(4-2) disjoint orientations
    partition_rows = [l for l in lines if "count=14" in l]
    assert len(partition_rows) == 4
    assert "u={} d={} count=24" in lines


OVERLAP_ERROR = "error: u and d must be disjoint, both contain [2]\n"


def test_count_overlap_rejected(capsys):
    # count, sort and tree refused overlapping sets before every command did,
    # with the same line
    for argv in (
        ("count", "--n", "4", "--u", "2", "--d", "2"),
        ("sort", "--n", "4", "--u=2", "--d=2", "4321"),
        ("tree", "--n", "4", "--u=2", "--d=2"),
    ):
        assert run_cli(capsys, *argv) == (2, "", OVERLAP_ERROR), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--n", "4", "--u=2", "--d=2", "4321"),
        ("automaton", "--n", "4", "--product", "--u=2", "--d=2"),
    ],
)
def test_overlapping_sets_are_refused(capsys, argv):
    # check answered 4321 "minimal" here, by the patterns, though no reduced
    # word of 4321 passes both automata of 2; both commands exited 0
    assert run_cli(capsys, *argv) == (2, "", OVERLAP_ERROR)


def test_automaton_single(capsys):
    code, out, _ = run_cli(capsys, "automaton", "--kind", "U", "--j", "4", "--n", "6", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    code2, out2, _ = run_cli(capsys, "automaton", "--kind", "U", "--j", "4", "--n", "6", "--dot")
    assert out == out2


def test_automaton_product(capsys):
    code, out, _ = run_cli(
        capsys, "automaton", "--product", "--u", "4", "--d", "2", "--n", "5", "--dot"
    )
    assert code == 0
    assert out.count("doublecircle") == 16  # 25 states minus 9 dead tuples


def test_automaton_requires_kind_or_product(capsys):
    code, _, err = run_cli(capsys, "automaton", "--n", "5")
    assert code == 2


def test_tree_dot(capsys):
    code, out, _ = run_cli(capsys, "tree", "--n", "4", "--u", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph tree")


def test_tree_json(capsys):
    code, out, _ = run_cli(capsys, "tree", "--n", "3", "--u", "2", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[""] == "123"
    assert len(payload) == 5


def test_tree_is_capped_by_node_count_not_degree(capsys):
    # the full up orientation of S_9 has Catalan(9) minimal permutations
    code, out, err = run_cli(capsys, "tree", "--n", "9", "--u", "2,3,4,5,6,7,8", "--output", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 4862 <= MAX_TREE_NODES


def test_network_command(capsys):
    code, out, _ = run_cli(
        capsys, "network", "--n", "4", "--u", "2", "--extend", "2,1"
    )
    assert code == 0
    assert "valid" in out
    code, _, err = run_cli(capsys, "network", "--n", "4", "--u", "2,3")
    assert code == 2


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1", "--n", "4")
    assert code == 0
    assert "theorem1: pass" in out


def test_verify_counting(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counting", "--n", "4")
    assert code == 0


def test_verify_refuses_oversized_bound(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "theorem1", "--n", "8")
    assert code == 2
    assert "capped" in err


CAPPED = "is capped at n={}; beyond that it is not worth the wait"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("count", "--n", "9"), "count over every orientation " + CAPPED.format(8)),
        (("count", "--n", "1001", "--u", "2"), "count " + CAPPED.format(1000)),
        (("count", "--n", "1001", "--u", "", "--d", ""), "count " + CAPPED.format(1000)),
        (("tree", "--n", "1001", "--u", "2"), "tree " + CAPPED.format(1000)),
        (("network", "--n", "9", "--u", "2"), "network " + CAPPED.format(8)),
        (("automaton", "--kind", "U", "--j", "2", "--n", "1001"), "automaton " + CAPPED.format(1000)),
        (
            ("automaton", "--product", "--n", "12", "--u", "2,3,4,5", "--d", "7,8,9,10"),
            "the product has 192476776960 states, more than the cap of 100000",
        ),
        (
            ("automaton", "--product", "--n", "11", "--u", "7,8,10", "--d", "2,9", "--reachable-only"),
            "the product has 100100 states, more than the cap of 100000",
        ),
        (("sort", "--n", "201", "1"), "sort --output text " + CAPPED.format(200)),
        (("sort", "--n", "401", "--output", "json", "1"), "sort " + CAPPED.format(400)),
        (("sort", "--n", "401", "--output", "text", "1"), "sort --output text " + CAPPED.format(200)),
        (("tree", "--n", "8", "--u", "2"), "the tree has 25200 nodes, more than the cap of 6000"),
        (("tree", "--n", "8", "--u", "2,3,4,5,6,7", "--overlay"), "tree --overlay " + CAPPED.format(7)),
        (("check", "--n", "2501", "--u", "2", "1"), "check " + CAPPED.format(2500)),
    ],
)
def test_oversized_inputs_are_refused(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("sort", "--n", "401", "--output", "json", "--u", "2", "--priority", "1", "1"),
        ("sort", "--n", "201", "--d", "2", "1"),
        ("check", "--n", "2501", "--u", "2", "1"),
        ("count", "--n", "1001", "--u", "2"),
        ("tree", "--n", "1001", "--u", "2", "--priority", "1"),
        ("tree", "--n", "8", "--overlay"),
        ("network", "--n", "9", "--u", "2"),
    ],
)
def test_caps_are_checked_before_anything_is_parsed(capsys, monkeypatch, argv):
    # the sets, a priority and a permutation each take memory linear in n
    def parsed(*args):
        raise AssertionError(f"parsed past a cap: {args}")

    for name in ("_parse_orientation", "_parse_priority", "_parse_permutation"):
        monkeypatch.setattr(cli, name, parsed)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "is capped at" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("automaton", "--kind", "U", "--j", "2", "--n", "4", "--u", "2"), "--u requires --product"),
        (("automaton", "--kind", "D", "--j", "2", "--n", "4", "--d", ""), "--d requires --product"),
        (
            ("automaton", "--kind", "D", "--j", "1", "--n", "3", "--reachable-only"),
            "--reachable-only requires --product",
        ),
        (
            ("automaton", "--product", "--n", "4", "--u", "2", "--kind", "U", "--j", "3"),
            "--kind cannot be combined with --product",
        ),
        (("automaton", "--product", "--n", "4", "--j", "0"), "--j cannot be combined with --product"),
    ],
)
def test_automaton_refuses_the_flags_of_the_other_mode(capsys, argv, reason):
    # a single automaton takes --kind and --j, the product --u, --d and
    # --reachable-only; a flag of the other mode is refused, not ignored
    assert run_cli(capsys, *argv) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("flag", ["--overlay", "--dot"])
def test_tree_json_refuses_the_dot_flags(capsys, flag):
    argv = ("tree", "--n", "3", "--u", "2", "--output", "json", flag)
    assert run_cli(capsys, *argv) == (2, "", f"error: {flag} does not apply to --output json\n")


@pytest.mark.parametrize(
    "extend, reason",
    [
        ("9", "letter 9 out of range 1..3"),
    ],
)
def test_network_bad_extension_is_usage_error(capsys, extend, reason):
    code, out, err = run_cli(capsys, "network", "--n", "4", "--u", "2", "--extend", extend)
    assert (code, out, err) == (2, "", f"error: cannot parse --extend {extend!r}: {reason}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "0"),
        ("count", "--n", "-3"),
        ("count", "--n", "0", "--u", "2"),
        ("tree", "--n", "0"),
        ("sort", "--n", "0", "1"),
        ("check", "--n", "0", "1"),
        ("automaton", "--kind", "U", "--j", "1", "--n", "0"),
        ("network", "--n", "0", "--u", "2"),
        ("verify", "--suite", "theorem1", "--n", "0"),
    ],
)
def test_degrees_below_one_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    n = argv[argv.index("--n") + 1]
    assert (code, out, err) == (2, "", f"error: --n must be at least 1, got {n}\n")


@pytest.mark.parametrize(
    "argv, allowed, given",
    [
        (("count", "--n", "2", "--u", "2"), "u must be a subset of {}", "[2]"),
        (("sort", "--n", "2", "--d", "1", "21"), "d must be a subset of {}", "[1]"),
        (("count", "--n", "1", "--d", "1"), "d must be a subset of {}", "[1]"),
        (("count", "--n", "3", "--u", "3"), "u must be a subset of {2}", "[3]"),
        (("check", "--n", "4", "--d", "2,4", "1234"), "d must be a subset of {2,..,3}", "[2, 4]"),
    ],
)
def test_orientation_outside_the_allowed_range_is_refused(capsys, argv, allowed, given):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {allowed}, got {given}\n")


def test_count_of_degree_one(capsys):
    assert run_cli(capsys, "count", "--n", "1") == (0, "u={} d={} count=1\n", "")
    assert run_cli(capsys, "count", "--n", "1", "--u=") == (0, "1\n", "")


def test_count_at_the_caps(capsys):
    n = MAX_COUNT_N
    alternating = ("--u", ",".join(map(str, range(2, n, 2))), "--d", ",".join(map(str, range(3, n, 2))))
    assert run_cli(capsys, "count", "--n", str(n), "--u=") == (0, f"{math.factorial(n)}\n", "")
    code, out, err = run_cli(capsys, "count", "--n", str(n), "--u=", "--output", "json")
    assert (code, json.loads(out), err) == (0, {"n": n, "u": [], "d": [], "count": math.factorial(n)}, "")
    assert run_cli(capsys, "count", "--n", str(n), *alternating) == (0, f"{math.comb(2 * n, n) // (n + 1)}\n", "")
    code, out, err = run_cli(capsys, "count", "--n", str(MAX_COUNT_ALL_N))
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 3 ** (MAX_COUNT_ALL_N - 2))
    assert f"u={{}} d={{}} count={math.factorial(MAX_COUNT_ALL_N)}" in lines


def test_verify_refuses_an_oversized_bound_before_running_any_suite(capsys, monkeypatch):
    called = []
    for name, (_, *bounds) in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, (lambda *a, name=name: called.append(name) or [], *bounds))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", "7")
    assert (code, out, err, called) == (2, "", f"error: suite csorting {CAPPED.format(6)}\n", [])
    # every suite allows 6, so --suite all runs them all there
    code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "6")
    assert (code, called) == (0, list(verify.SUITES))


def test_verify_has_no_orientation_flags(capsys):
    # no suite takes an orientation, so --u and --d are refused, not ignored
    for flag in ("--u", "--d"):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "tables", flag, "7"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "nonsense"])
    assert excinfo.value.code == 2


def test_check_json(capsys):
    witness = {"j": 3, "positions": [1, 2, 4], "side": "down", "values": "423"}
    assert run_cli(capsys, "check", "--n", "5", "--d", "3", "--output", "json", "42135") == (
        1, json.dumps({"minimal": False, "pi": "42135", "witness": witness}) + "\n", ""
    )
    assert run_cli(capsys, "check", "--n", "5", "--u", "3", "--output", "json", "42135") == (
        0, '{"minimal": true, "pi": "42135"}\n', ""
    )


def test_check_witness_values_run_together_from_degree_10(capsys):
    # pi is space-separated from degree 10 up; the witness values 3, 10, 2 are not
    argv = ("check", "--n", "10", "--u", "3", "1,3,10,2,4,5,6,7,8,9")
    assert run_cli(capsys, *argv) == (
        1, "non-minimal: contains 3102 (3ki) at positions 2,3,4\n", ""
    )
    witness = {"j": 3, "positions": [2, 3, 4], "side": "up", "values": "3102"}
    payload = {"minimal": False, "pi": "1 3 10 2 4 5 6 7 8 9", "witness": witness}
    assert run_cli(capsys, *argv, "--output", "json") == (1, json.dumps(payload) + "\n", "")


def test_count_table_json(capsys):
    rows = [
        (24, [], []), (18, [2], []), (14, [2, 3], []), (18, [3], []), (18, [], [2]),
        (14, [3], [2]), (14, [], [2, 3]), (18, [], [3]), (14, [2], [3]),
    ]
    payload = {"n": 4, "rows": [{"count": c, "d": d, "u": u} for c, d, u in rows]}
    assert run_cli(capsys, "count", "--n", "4", "--output", "json") == (0, json.dumps(payload) + "\n", "")


def test_network_json(capsys):
    # the templates are read off the healthy row of the automaton's table
    template = [3, 4, 3, 4, 2, 1, 4, 1, 4, 3, 1, 2, 1, 2, 4, 4, 3, 2, 1]
    assert run_cli(capsys, "network", "--n", "5", "--u", "2", "--output", "json") == (
        0, json.dumps({"counterexample": None, "template": template, "valid": True}) + "\n", ""
    )
    assert run_cli(capsys, "network", "--n", "4", "--d", "2", "--extend=", "--output", "json") == (
        1, '{"counterexample": "1324", "template": [3, 1], "valid": false}\n', ""
    )


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("automaton", "--kind", "U", "--j", "0", "--n", "4"), "--j must lie in 1..4"),
        (("sort", "--n", "4", "--priority", "1,1,2", "1234"), "not an ordering of 1..3: (1, 1, 2)"),
        (("check", "--n", "4", "--u", "2,x", "1234"), "cannot parse set from '2,x'"),
        (("sort", "--n", "3", "--priority", "2,x", "321"), "cannot parse priority from '2,x'"),
        (("tree", "--n", "3", "--priority", "2,x"), "cannot parse priority from '2,x'"),
        (("network", "--n", "4", "--u", "2", "--extend", "2,x"), "cannot parse --extend from '2,x'"),
    ],
)
def test_malformed_values_are_usage_errors(capsys, argv, reason):
    assert run_cli(capsys, *argv) == (2, "", f"error: {reason}\n")


def test_verify_prints_each_violation_indented(capsys):
    refutation = (
        "41325 is c-sortable for 4 Coxeter words "
        "(3,2,1,4; 3,2,4,1; 3,4,2,1; 4,3,2,1), not for none"
    )
    assert run_cli(capsys, "verify", "--suite", "csorting") == (
        1, f"csorting: FAIL (1 counterexamples)\n  {refutation}\n", ""
    )


def child_env() -> dict:
    """The environment for a child interpreter that imports the package these
    tests import, installed or not."""
    src = str(pathlib.Path(permutree.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "permutree", "count", "--n", "3", "--u", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "1000", "--u="],
        # a table of 2.3 MB, more than a pipe holds, so the write fails even
        # if it starts before the read end is closed
        ["sort", "--n", "40", "--output", "text", " ".join(map(str, range(40, 0, -1)))],
        # 1.0 MB of JSON: both formats stop in the middle of their stream
        ["sort", "--n", "80", "--output", "json", " ".join(map(str, range(80, 0, -1)))],
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "permutree", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    proc.stdout.close()  # the reader is gone before the child writes, as with `| head`
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_streamed_table_keeps_a_real_stdout_small():
    # A child sorts a random pi at n = 120 into a 51 MB table with stdout at
    # /dev/null and reports its own peak RSS before and after the command;
    # a table built whole, then encoded whole, raised it by about twice its size.
    n = 120
    entries = list(range(1, n + 1))
    random.Random(1).shuffle(entries)
    text = " ".join(map(str, entries))
    size = len(written(permutree_sort(Permutation(tuple(entries)), Orientation(set(), set(), n)).to_table))
    code = (
        "import resource, sys\n"
        "from permutree.cli import main\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
        "before = peak()\n"
        f"code = main(['sort', '--n', '{n}', '--output', 'text', {text!r}])\n"
        "print(before, peak(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stderr.split())
    assert size > 40_000_000
    assert after - before <= 0.1 * size, (before, after, size)


def run_or_exit(capsys, argv):
    """(code, out, err) of main(argv); an argparse exit gives ("exit", code)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# neighbours that differ only in a flag or a default, so that a value left
# behind by one call would change the output of the next
REPEATED = [
    ("tree", "--n", "4", "--u", "2", "--overlay"),
    ("tree", "--n", "4", "--u", "2"),
    ("sort", "--n", "4", "--u", "3", "--d", "2", "--output", "json", "3214"),
    ("sort", "--n", "4", "--u", "3", "--d", "2", "3214"),
    ("sort", "--n", "0", "1"),
    ("count", "--u", "2"),
    ("verify", "--suite", "tables"),
]


def test_repeated_calls_in_one_process_are_independent(capsys):
    first = [run_or_exit(capsys, argv) for argv in REPEATED]
    again = [run_or_exit(capsys, argv) for argv in reversed(REPEATED)]
    assert again[::-1] == first
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, ("exit", 2), 0]
    assert first[0][1] != first[1][1] and first[2][1] != first[3][1]
    assert first[4][2] == "error: --n must be at least 1, got 0\n"
    assert "the following arguments are required: --n" in first[5][2]


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "count", "--n", "3", "--u", "2") == (0, "5\n", "")
    assert run_cli(capsys, "count", "--n", "2") == (0, "u={} d={} count=2\n", "")
    assert len(built) == 8  # the parser and its 7 subparsers, once

    # importing the module builds nothing
    proc = subprocess.run(
        [sys.executable, "-c", "import permutree.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n")


@pytest.mark.parametrize(
    "command", [(), ("sort",), ("check",), ("count",), ("automaton",), ("tree",), ("network",), ("verify",)]
)
def test_the_cached_parser_helps_as_a_fresh_one(capsys, command):
    helps = []
    for parser in (cli.build_parser(), cli.build_parser.__wrapped__(), cli.build_parser()):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([*command, "--help"])
        assert excinfo.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0].startswith(" ".join(["usage: permutree", *command]))
    assert helps[0] == helps[1] == helps[2]


# -- the exit-code contract of every command, on seeded argument lists -------

SORT_CAPS = (MAX_SORT_N, MAX_SORT_TEXT_N)
CONTRACT_CAPS = (*SORT_CAPS, MAX_CHECK_N)
MALFORMED_DEGREES = ["0", "-2", "", "x", "2.5"]


def drawn_sets(rng: random.Random, n: int, flags=("--u", "--d")) -> list[str]:
    """Each flag omitted, malformed, or a few values near 2..n-1, now and
    then out of range; u and d often overlap, which is refused."""
    argv = []
    for flag in flags:
        pick = rng.random()
        if pick < 0.1:
            argv.append(f"{flag}={rng.choice(['', '2,x', '1;2', '2..4'])}")
        elif pick < 0.6:
            values = {rng.randint(2, max(2, min(n - 1, 6))) for _ in range(rng.randint(1, 3))}
            if rng.random() < 0.15:
                values.add(rng.choice([0, 1, n, n + 1]))
            argv.append(f"{flag}={','.join(map(str, sorted(values)))}")
    return argv


def contract_argv(rng: random.Random) -> list[str]:
    """One seeded argument list for sort or check.  Its degree is small,
    malformed, or a sort or check cap or one past it; its sets are drawn by
    drawn_sets; its priority, output and permutation are
    now and then malformed or of the wrong degree.  A valid permutation of a
    large degree is the identity after a few adjacent swaps, so that a sort
    at a cap stays short."""
    command = rng.choice(["sort", "check"])
    if rng.random() < 0.15:
        degree = rng.choice(MALFORMED_DEGREES)
    elif rng.random() < 0.3:
        degree = str(rng.choice(CONTRACT_CAPS) + rng.randrange(2))
    else:
        degree = str(rng.randint(1, 7))
    n = int(degree) if degree.isdigit() and int(degree) > 0 else rng.randint(1, 7)
    argv = [command, f"--n={degree}", *drawn_sets(rng, n)]
    letters = list(range(1, n))
    rng.shuffle(letters)
    if command == "sort" and rng.random() < 0.5:
        pick = rng.random()
        if pick < 0.1:
            letters.append(n)  # one letter too many
        priority = rng.choice(["1,1", "x", ""]) if pick > 0.9 else ",".join(map(str, letters))
        argv.append(f"--priority={priority}")
    if rng.random() < 0.6:
        argv.append(f"--output={rng.choice(['text', 'json']) if rng.random() < 0.95 else 'xml'}")
    entries = list(range(1, n + 1))
    if n <= 7:
        rng.shuffle(entries)
    else:
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(n - 1)
            entries[i], entries[i + 1] = entries[i + 1], entries[i]
    pick = rng.random()
    if pick < 0.05:
        argv.append(rng.choice(["", "12a", "1 1", "3,x"]))
    elif pick < 0.1:
        argv.append(str(Permutation((*entries, n + 1))))  # one degree too many
    else:
        argv.append(str(Permutation(tuple(entries))))
    return argv


def exit_of(capsys, argv):
    """(exit code, out, err) of main(argv), argparse's refusals included."""
    code, out, err = run_or_exit(capsys, argv)
    return (code[1] if isinstance(code, tuple) else code), out, err


def assert_keeps_the_contract(capsys, argv):
    """main(argv) exits 0, 1 or 2 without a traceback; a refusal (2) prints one
    error line and nothing on stdout, and a second run prints the same.
    Returns the exit code and stderr."""
    code, out, err = exit_of(capsys, argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    else:
        assert out and err == "", argv
    assert exit_of(capsys, argv) == (code, out, err), argv
    return code, err


def test_sort_and_check_keep_their_exit_code_contract(capsys):
    # Every list exits 0, 1 or 2 without a traceback; a refusal (2) prints
    # one error line and nothing on stdout, and the same list prints the same
    # twice.  A sort past a cap is refused before it sorts: its exit is 2.
    rng = random.Random(20261020)
    seen = collections.Counter()
    for _ in range(800):
        argv = contract_argv(rng)
        code, err = assert_keeps_the_contract(capsys, argv)
        degree = argv[1].partition("=")[2]
        n = int(degree) if degree.isdigit() else None
        text = "--output=json" not in argv
        if argv[0] == "sort" and n is not None and (n > MAX_SORT_N or text and n > MAX_SORT_TEXT_N):
            assert code == 2, argv
        if argv[0] == "check" and n is not None and n > MAX_CHECK_N:
            assert code == 2, argv
        seen[argv[0], code, "capped" in err, n in CONTRACT_CAPS] += 1
    # the draw reaches each outcome of both commands, refusals by a cap, and
    # sorts and checks run at a cap
    for command in ("sort", "check"):
        for code in (0, 1, 2):
            assert any(key[:2] == (command, code) for key in seen), (command, code)
        assert any(key[:3] == (command, 2, True) for key in seen), command
        assert any(key[0] == command and key[1] != 2 and key[3] for key in seen), command


# products just within and just past MAX_PRODUCT_STATES (99,968 and 100,100
# states)
PRODUCT_AT_CAP = ["--n=25", "--u=2,11,15"]
PRODUCT_PAST_CAP = ["--n=11", "--u=7,8,10", "--d=2,9"]


def trees_around_the_node_cap() -> tuple[list[str], list[str]]:
    """The set flags of the largest tree of S_8 within MAX_TREE_NODES and of
    the smallest one past it."""
    counts = {(tuple(sorted(o.u)), tuple(sorted(o.d))): count_minimal(o) for o in verify.disjoint_orientations(8)}
    within = max((c, sets) for sets, c in counts.items() if c <= MAX_TREE_NODES)[1]
    past = min((c, sets) for sets, c in counts.items() if c > MAX_TREE_NODES)[1]
    return tuple([f"--u={','.join(map(str, u))}", f"--d={','.join(map(str, d))}"] for u, d in (within, past))


TREE_WITHIN_CAP, TREE_PAST_CAP = trees_around_the_node_cap()


def drawn_degree(rng: random.Random, small: int, past: list[int]) -> tuple[str, int]:
    """A degree (malformed, one past a cap, or in 1..small) and a usable n."""
    if rng.random() < 0.1:
        return rng.choice(MALFORMED_DEGREES), rng.randint(1, small)
    if rng.random() < 0.2:
        n = rng.choice(past)
        return str(n), n
    n = rng.randint(1, small)
    return str(n), n


def command_argv(rng: random.Random) -> tuple[list[str], bool]:
    """One seeded argument list for count, tree, automaton, network or
    verify, and whether it is past one of the command's caps.  Degrees are
    small, malformed or one past a cap, and no list runs at a cap."""
    command = rng.choice(["count", "tree", "automaton", "network", "verify"])
    output = [f"--output={rng.choice(['text', 'json', 'dot', 'xml'])}"] if rng.random() < 0.4 else []
    if command == "count":
        degree, n = drawn_degree(rng, 7, [MAX_COUNT_ALL_N + 1, MAX_COUNT_N + 1])
        sets = drawn_sets(rng, n)
        if n == MAX_COUNT_N + 1:
            sets = sets or ["--u="]
        elif n > MAX_COUNT_ALL_N:
            sets = []
        past = degree.isdigit() and (n > MAX_COUNT_N or not sets and n > MAX_COUNT_ALL_N)
        return ["count", f"--n={degree}", *sets, *output], past
    if command == "tree":
        if rng.random() < 0.1:  # just past the node cap
            return ["tree", "--n=8", *TREE_PAST_CAP, *output], True
        degree, n = drawn_degree(rng, 6, [MAX_COUNT_N + 1, MAX_TREE_OVERLAY_N + 1])
        argv = ["tree", f"--n={degree}", *drawn_sets(rng, n), *output]
        overlay = n == MAX_TREE_OVERLAY_N + 1 or rng.random() < 0.2
        argv += ["--overlay"] * overlay + ["--dot"] * (rng.random() < 0.1)
        if rng.random() < 0.3:
            letters = list(range(1, n))
            rng.shuffle(letters)
            argv.append(f"--priority={rng.choice(['1,1', 'x', '']) if rng.random() < 0.2 else ','.join(map(str, letters))}")
        past = degree.isdigit() and (n > MAX_COUNT_N or overlay and n > MAX_TREE_OVERLAY_N)
        return argv, past
    if command == "automaton":
        if rng.random() < 0.5:
            if rng.random() < 0.1:
                return ["automaton", "--product", *PRODUCT_PAST_CAP], True
            degree, n = drawn_degree(rng, 6, [MAX_AUTOMATON_N + 1])
            argv = ["automaton", "--product", f"--n={degree}", *drawn_sets(rng, n)]
            argv += ["--reachable-only"] * (rng.random() < 0.3) + [f"--j={rng.randint(0, n)}"] * (rng.random() < 0.1)
        else:
            degree, n = drawn_degree(rng, 7, [MAX_AUTOMATON_N + 1])
            argv = ["automaton", f"--n={degree}"]
            if rng.random() < 0.9:
                argv.append(f"--kind={rng.choice(['U', 'D', 'u', 'd', 'X'])}")
            if rng.random() < 0.9:
                argv.append(f"--j={rng.randint(0, n + 1)}")
            argv += drawn_sets(rng, n, ("--u",)) if rng.random() < 0.1 else []
        argv += ["--dot"] * (rng.random() < 0.2) + output
        return argv, degree.isdigit() and n > MAX_AUTOMATON_N
    if command == "network":
        degree, n = drawn_degree(rng, 6, [MAX_NETWORK_N + 1])
        # the candidate needs one automaton: mostly one value of u or d
        one = [f"--{rng.choice('ud')}={rng.randint(2, max(2, n - 1))}"]
        argv = ["network", f"--n={degree}", *(one if rng.random() < 0.7 else drawn_sets(rng, n)), *output]
        if rng.random() < 0.3:
            extension = [rng.randint(0, n) for _ in range(rng.randint(0, 4))]
            argv.append(f"--extend={rng.choice(['x', '1;2']) if rng.random() < 0.2 else ','.join(map(str, extension))}")
        return argv, degree.isdigit() and n > MAX_NETWORK_N
    # verify: a bounded suite is run at most at its default bound 5 (all of
    # them at most at 4), or one past its cap, and a fixed-size one with or
    # without a bound it ignores; all is capped by the lowest cap, and an
    # unknown suite is refused whatever its bound
    suite = rng.choice([*verify.SUITES, "all", "bogus"])
    argv = ["verify", f"--suite={suite}"]
    if suite in verify.SUITES:
        _, default, cap = verify.SUITES[suite]
    else:
        default, cap = 5, min(cap for _, _, cap in verify.SUITES.values() if cap)
    past = False
    if rng.random() < 0.1:
        argv.append(f"--n={rng.choice(MALFORMED_DEGREES)}")
    elif cap is not None and rng.random() < 0.3:
        argv.append(f"--n={cap + 1}")
        past = True
    elif default is not None:
        argv.append(f"--n={rng.randint(1, 4 if suite == 'all' else 5)}")
    elif rng.random() < 0.5:
        argv.append(f"--n={rng.randint(1, 9)}")
    return argv, past


@pytest.mark.parametrize("draws", [400, slow(3000)])
def test_other_commands_keep_their_exit_code_contract(capsys, draws):
    # as for sort and check: an argument list past a cap is refused (exit 2)
    # before the work, which the empty stdout shows
    rng = random.Random(20261021)
    seen = collections.Counter()
    for _ in range(draws):
        argv, past = command_argv(rng)
        code, err = assert_keeps_the_contract(capsys, argv)
        if past:
            assert code == 2, argv
        seen[argv[0], code, past] += 1
    for command in ("count", "tree", "automaton", "network", "verify"):
        for code in (0, 2):
            assert any(key[:2] == (command, code) for key in seen), (command, code)
        assert any(key[0] == command and key[2] for key in seen), command
    assert ("network", 1, False) in seen


def worst_check(n: int) -> list[str]:
    """check's worst case: the identity, with each j of 2..n-1 on the side
    whose witness scan is longer, up below the middle and down above it."""
    up = ",".join(str(j) for j in range(2, n) if 2 * j < n + 1)
    down = ",".join(str(j) for j in range(2, n) if 2 * j >= n + 1)
    return ["check", f"--n={n}", f"--u={up}", f"--d={down}", " ".join(map(str, range(1, n + 1)))]


AT_THE_CAPS = [
    ["count", f"--n={MAX_COUNT_ALL_N}"],
    ["count", f"--n={MAX_COUNT_N}", "--u="],
    ["count", f"--n={MAX_COUNT_N}", f"--u={','.join(map(str, range(2, MAX_COUNT_N, 7)))}"],
    ["tree", f"--n={MAX_TREE_OVERLAY_N}", "--overlay"],
    ["automaton", f"--n={MAX_AUTOMATON_N}", "--kind=U", f"--j={MAX_AUTOMATON_N // 2}"],
    ["automaton", "--product", *PRODUCT_AT_CAP],
    ["network", f"--n={MAX_NETWORK_N}", "--u=4"],
    *(["verify", f"--suite={name}", f"--n={cap}"] for name, (_, _, cap) in verify.SUITES.items() if cap),
    ["tree", "--n=8", *TREE_WITHIN_CAP],
    worst_check(MAX_CHECK_N),
]


@pytest.mark.parametrize("argv", [slow(argv) for argv in AT_THE_CAPS], ids=lambda argv: " ".join(argv)[:40])
def test_commands_at_their_caps_keep_the_contract(capsys, argv):
    code, _ = assert_keeps_the_contract(capsys, argv)
    assert code in (0, 1), argv
