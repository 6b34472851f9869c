import json
import math

import pytest

from permutree import verify
from permutree.cli import MAX_COUNT_ALL_N, MAX_COUNT_N, MAX_TREE_NODES, main


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


def test_count_overlap_rejected(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "4", "--u", "2", "--d", "2")
    assert code == 2


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
        (("count", "--n", "17", "--u", "2"), "count " + CAPPED.format(16)),
        (("count", "--n", "17", "--u", "", "--d", ""), "count " + CAPPED.format(16)),
        (("tree", "--n", "17", "--u", "2"), "tree " + CAPPED.format(16)),
        (("network", "--n", "9", "--u", "2"), "network " + CAPPED.format(8)),
        (("automaton", "--kind", "U", "--j", "2", "--n", "1001"), "automaton " + CAPPED.format(1000)),
        (
            ("automaton", "--product", "--n", "12", "--u", "2,3,4,5", "--d", "7,8,9,10"),
            "the product has 192476776960 states, more than the cap of 100000",
        ),
        (
            ("automaton", "--product", "--n", "10", "--u", "2,6,9", "--d", "2,4", "--reachable-only"),
            "the product has 100100 states, more than the cap of 100000",
        ),
        (("sort", "--n", "201", "1"), "sort --output text " + CAPPED.format(200)),
        (("sort", "--n", "401", "--output", "json", "1"), "sort " + CAPPED.format(400)),
        (("sort", "--n", "401", "--output", "text", "1"), "sort --output text " + CAPPED.format(200)),
        (("tree", "--n", "8", "--u", "2"), "the tree has 25200 nodes, more than the cap of 6000"),
        (("tree", "--n", "8", "--u", "2,3,4,5,6,7", "--overlay"), "tree --overlay " + CAPPED.format(7)),
    ],
)
def test_oversized_inputs_are_refused(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


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
        ("x", "invalid literal for int() with base 10: 'x'"),
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
    assert run_cli(capsys, "count", "--n", str(n), *alternating) == (0, f"{math.comb(2 * n, n) // (n + 1)}\n", "")
    code, out, err = run_cli(capsys, "count", "--n", str(MAX_COUNT_ALL_N))
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 3 ** (MAX_COUNT_ALL_N - 2))
    assert f"u={{}} d={{}} count={math.factorial(MAX_COUNT_ALL_N)}" in lines


def test_verify_refuses_an_oversized_bound_before_running_any_suite(capsys, monkeypatch):
    called = []
    for name, (_, *bounds) in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, (lambda *a, name=name: called.append(name) or [], *bounds))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", "6")
    assert (code, out, err, called) == (2, "", f"error: suite csorting {CAPPED.format(5)}\n", [])


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


def test_module_entry_point():
    import os
    import pathlib
    import subprocess
    import sys

    import permutree

    # the child imports the package these tests import, installed or not
    src = str(pathlib.Path(permutree.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "permutree", "count", "--n", "3", "--u", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"
