"""The benchmark's traced mode still finds every package name it wraps.

perfbench/tracer.py binds functions of the package from outside (among
them a private extractor, a generator function and an lru_cache), so a
rename inside the package breaks traced runs with an AttributeError or a
KeyError.  This runs one untraced and one traced pass over a few tiny
commands in a fresh interpreter, as perfbench/worker.py does.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import permutree, permutree.cli
from check import Checker
from tracer import Tracer
from worker import Run, per_layer
from workloads import Op

none = frozenset()
tree = {{"n": 4, "u": frozenset({{2}}), "d": frozenset({{3}}), "priority": (3, 1, 2)}}
tree_argv = ("tree", "--n", "4", "--u=2", "--d=3", "--priority=3,1,2")
sort = {{"n": 6, "u": none, "d": none, "pi": (3, 6, 1, 5, 2, 4), "priority": (2, 5, 1, 4, 3)}}
sort_argv = ("sort", "--n", "6", "--u=", "--d=", "--priority=2,5,1,4,3", "--output")
ops = [
    Op(("verify", "--suite", "tables"), "verify", {{"suite": "tables"}}),
    # csorting's worked fact about 4213 runs one word through a single automaton
    Op(("verify", "--suite", "csorting"), "verify", {{"suite": "csorting"}}),
    # the prefix suite reads its pairs and lexmin table off one pass over the
    # weak order: a passing run enumerates no reduced word, and no op searches
    Op(("verify", "--suite", "prefix", "--n", "4"), "verify", {{"suite": "prefix"}}),
    # the networks suite enumerates the 768 reduced words of 54321
    Op(("verify", "--suite", "networks"), "verify", {{"suite": "networks"}}),
    Op(("count", "--n", "5", "--u=", "--d="), "count", {{"n": 5, "u": none, "d": none}}),
    # every tree output the count-tree workload prints: DOT, DOT over the weak order, JSON
    Op(tree_argv, "tree", {{**tree, "output": "dot"}}),
    Op((*tree_argv, "--overlay"), "tree", {{**tree, "output": "overlay"}}),
    Op((*tree_argv, "--output", "json"), "tree", {{**tree, "output": "json"}}),
    # the checker compares a text sort with the JSON sort of the same input just before it
    Op((*sort_argv, "json", "3,6,1,5,2,4"), "sort", {{**sort, "output": "json"}}),
    Op((*sort_argv, "text", "3,6,1,5,2,4"), "sort", {{**sort, "output": "text"}}),
]
run = Run(permutree.cli.main, ops, Checker())
run.one_pass()
cache = permutree.core.all_reduced_words
cache.cache_clear()  # else the traced pass finds 54321's words cached and enumerates nothing
before = cache.cache_info()
tracer = Tracer(permutree)
tracer.install()
run.main = permutree.cli.main
run.one_pass(tracer)
metrics = per_layer(run, tracer, before, cache.cache_info())
print(json.dumps({{"failures": run.failures, "metrics": {{k: v[0] for k, v in metrics.items()}}}}))
"""


def test_traced_pass_reports_every_per_layer_metric():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(set(declared) - set(result["metrics"])) == []
    # the wrappers saw calls made inside the package
    metrics = result["metrics"]
    assert metrics["core.reduced_words"] > 0
    # no command calls lexmin_word; the declared-metric check above shows
    # that the tracer still binds it
    assert metrics["trees.lexmin_word.calls"] == 0
    # single runs and product stepping still go through the names the tracer wraps
    assert metrics["automata.step.calls"] > 0
    assert metrics["automata.step_product.calls"] > 0
    assert metrics["automata.classify.calls"] > 0
    assert metrics["automata.dead_ratio"] > 0
    # the sort loop and the table rendering still go through the names the tracer wraps
    assert metrics["sorting.render_s"] > 0
    assert metrics["sorting.trace_rows"] > 0
    assert metrics["sorting.pick.calls"] > 0
