"""The README's examples run and show what their comments state."""
import contextlib
import io
import pathlib
import re

from permutree.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_library_quick_start_prints_the_values_its_comments_state():
    (block,) = fenced("python")
    # one-token comments state values; the trace table's comment describes it
    stated = re.findall(r"^print\(.*\)\s+# (\S+)$", block, re.M)
    assert stated == ["3,2,1,4,3,2,1,3", "True", "False", "14", "14"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines()[-len(stated) :] == stated


def test_command_line_examples_exit_as_stated(capsys):
    lines = [line for block in fenced("") for line in block.splitlines()]
    examples = [line.split("#")[0].split()[1:] for line in lines if line.startswith("permutree ")]
    assert [argv[0] for argv in examples] == [
        "sort", "sort", "check", "count", "count",
        "automaton", "automaton", "tree", "network", "verify", "verify",
    ]
    codes, outs = [], []
    for argv in examples:
        codes.append(main(argv))
        outs.append(capsys.readouterr().out)
    # stuck sort, non-minimal check and verify --suite all (csorting's
    # refutation) exit 1; every other example exits 0
    assert codes == [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]
    assert "contains 423 " in outs[2]
    assert outs[3] == "14\n"
    assert len(outs[4].splitlines()) == 9
