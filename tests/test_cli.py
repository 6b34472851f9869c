import argparse
import collections
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
from permutree.cli import MAX_COUNT_ALL_N, MAX_COUNT_N, MAX_SORT_N, MAX_SORT_TEXT_N, MAX_TREE_NODES, main


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
        want = trace.to_table() if output == "text" else trace.to_json() + "\n"
        u_text, d_text, order = (",".join(map(str, values)) for values in (u, d, priority.order))
        code, out, err = run_cli(
            capsys, "sort", "--n", str(n), f"--u={u_text}", f"--d={d_text}", f"--priority={order}",
            "--output", output, str(pi),
        )
        assert (code, err) == (0 if trace.success else 1, "")
        assert out == want, (u, d)


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
    size = len(permutree_sort(Permutation(tuple(entries)), Orientation(set(), set(), n)).to_table())
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


# -- the exit-code contract of sort and check, on seeded argument lists ------

SORT_CAPS = (MAX_SORT_N, MAX_SORT_TEXT_N)


def contract_argv(rng: random.Random) -> list[str]:
    """One seeded argument list for sort or check.  Its degree is small,
    malformed, or a sort cap or one past it; its sets are omitted, malformed,
    out of range or overlapping; its priority, output and permutation are
    now and then malformed or of the wrong degree.  A valid permutation of a
    large degree is the identity after a few adjacent swaps, so that a sort
    at a cap stays short."""
    command = rng.choice(["sort", "check"])
    if rng.random() < 0.15:
        degree = rng.choice(["0", "-2", "", "x", "2.5"])
    elif rng.random() < 0.3:
        degree = str(rng.choice(SORT_CAPS) + rng.randrange(2))
    else:
        degree = str(rng.randint(1, 7))
    n = int(degree) if degree.isdigit() and int(degree) > 0 else rng.randint(1, 7)
    argv = [command, f"--n={degree}"]
    for flag in ("--u", "--d"):  # both drawn from a few values near 2..n-1, so they often overlap
        pick = rng.random()
        if pick < 0.1:
            argv.append(f"{flag}={rng.choice(['', '2,x', '1;2', '2..4'])}")
        elif pick < 0.6:
            values = {rng.randint(2, max(2, min(n - 1, 6))) for _ in range(rng.randint(1, 3))}
            if rng.random() < 0.15:
                values.add(rng.choice([0, 1, n, n + 1]))
            argv.append(f"{flag}={','.join(map(str, sorted(values)))}")
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


def test_sort_and_check_keep_their_exit_code_contract(capsys):
    # Every list exits 0, 1 or 2 without a traceback; a refusal (2) prints
    # one error line and nothing on stdout, and the same list prints the same
    # twice.  A sort past a cap is refused before it sorts: its exit is 2.
    rng = random.Random(20261020)
    seen = collections.Counter()
    for _ in range(800):
        argv = contract_argv(rng)
        code, out, err = exit_of(capsys, argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        else:
            assert out and err == "", argv
        assert exit_of(capsys, argv) == (code, out, err), argv
        degree = argv[1].partition("=")[2]
        n = int(degree) if degree.isdigit() else None
        text = "--output=json" not in argv
        if argv[0] == "sort" and n is not None and (n > MAX_SORT_N or text and n > MAX_SORT_TEXT_N):
            assert code == 2, argv
        seen[argv[0], code, "capped" in err, n in SORT_CAPS] += 1
    # the draw reaches each outcome of both commands, refusals by a cap, and
    # sorts run at a cap
    for command in ("sort", "check"):
        for code in (0, 1, 2):
            assert any(key[:2] == (command, code) for key in seen), (command, code)
    assert any(key[:3] == ("sort", 2, True) for key in seen)
    assert any(key[0] == "sort" and key[1] != 2 and key[3] for key in seen)
