"""Run one workload in this fresh process and print its measurements.

Started by run.py from the root of a checkout; imports the package from
``src/`` there.  One client, one thread, closed loop: each operation is one
in-process ``permutree.cli.main(argv)`` call with stdout captured, and the
next starts only after it returns and its output has been checked.  The
checker and a garbage collection run between operations, outside the timed
region.

The operation list is run in whole passes, as many as ``PASS_SECONDS`` in
workloads.py gives for ``--seconds``, so the work in a run is fixed by its
arguments.  With ``--trace 1`` one untraced pass runs as the reference for
the tracing overhead, then one traced pass.

The machine's speed swings by up to 2x within a second under load from
other tenants, so a ``Meter`` times a fixed calibration (``calibrate``, the
checker's own pure-Python primitives, no package code) before and after
each op and, by SIGALRM every ``SAMPLE_S`` seconds, during it.  The op's
time, less the time spent in those samples, is scaled to the reference
speed: ``elapsed * CAL_REF_S * mean(1 / sample)``.  Each op's end-to-end
time is then its fastest scaled time over the passes.  The traced pass
samples only before and after each op, so that no sample lands in a
layer's self time.  The raw times are kept in the record and the context
line.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics and info.  A full record (per-op times, failures, per-function
counters and spans when traced) goes to ``--record``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback

from check import Checker, avoids, evaluate, inversion_count
from workloads import PASS_SECONDS, build_ops

# suites timed on their own by the verify.suite_*_s metrics; the rest are "other"
NAMED_SUITES = ("prefix", "csorting", "networks", "theorem2")

# Fixed calibration inputs, and the time calibrate() takes on the reference
# machine (2 cores, Python 3.11.7) when it runs at its quiet speed, so that
# scaled times read as seconds at that speed.
CAL_PERMS = [tuple(random.Random(i).sample(range(1, 10), 9)) for i in range(300)]
CAL_WORD = [1, 2, 3, 4, 5, 6, 7, 8] * 2
CAL_REF_S = 0.0046
SAMPLE_S = 0.5  # a sample takes about 15 ms, so sampling costs an op about 3%


def calibrate() -> float:
    """Seconds for a fixed slice of pure-Python work: fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for pi in CAL_PERMS:
            avoids(pi, {3, 5}, {7})
            inversion_count(pi)
            evaluate(CAL_WORD, 9)
        best = min(best, time.perf_counter() - start)
    return best


class Meter:
    """Samples the machine's speed around and, with ``inside``, during each op."""

    def __init__(self, inside: bool):
        self.inside = inside
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling while the op was timed
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def begin(self) -> None:
        self.samples, self.spent = [calibrate()], 0.0

    def arm(self) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def end(self) -> float:
        """The factor that scales the op's time to the reference speed."""
        self.samples.append(calibrate())
        return CAL_REF_S * statistics.mean(1 / sample for sample in self.samples)


class Sink:
    """A stdout stand-in that keeps the written strings without copying them."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        if text:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def value(self) -> str:
        return self.parts[0] if len(self.parts) == 1 else "".join(self.parts)


def run_op(main, argv, meter: Meter) -> tuple[int, str, float, str | None]:
    out, err = Sink(), Sink()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        meter.arm()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, reported with its traceback
            code, crash = -1, traceback.format_exc(limit=3)
        finally:
            meter.disarm()
        elapsed = time.perf_counter() - start - meter.spent
    return code, out.value(), elapsed, crash


class Run:
    def __init__(self, main, ops, checker):
        self.main, self.ops, self.checker = main, ops, checker
        self.passes: list[list[float]] = []  # op seconds at the reference speed, per pass
        self.raw_passes: list[list[float]] = []  # op seconds as measured, per pass
        self.failures: list[dict] = []
        self.attempted = 0
        self.out_chars = 0

    def one_pass(self, tracer=None) -> None:
        times, scaled = [], []
        meter = Meter(inside=tracer is None)
        for index, op in enumerate(self.ops):
            gc.collect()
            meter.begin()
            if tracer is not None:
                tracer.begin_op(self.attempted)
            code, out, elapsed, crash = run_op(self.main, op.argv, meter)
            if tracer is not None:
                tracer.end_op(elapsed)
            self.attempted += 1
            self.out_chars += len(out)
            times.append(elapsed)
            scaled.append(elapsed * meter.end())
            reason = crash or self.checker.check(op, code, out)
            del out
            if reason is not None:
                self.failures.append({"op": index, "argv": list(op.argv)[:6], "reason": reason[:500]})
        self.raw_passes.append(times)
        self.passes.append(scaled)


def best_times(passes) -> list[float]:
    """Each op's fastest time over the passes."""
    return [min(times) for times in zip(*passes)]


def p90(times) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


def end_to_end(run: Run) -> dict:
    best = best_times(run.passes)
    return {
        "wall_ref_s": (sum(best), "s"),
        "op_p90_ref_ms": (p90(best) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def suite_times(ops, times) -> dict:
    """Seconds per suite from one pass of verify-all (scaled); zero on other workloads."""
    totals = dict.fromkeys(NAMED_SUITES + ("other",), 0.0)
    for op, elapsed in zip(ops, times):
        if op.cmd == "verify":
            suite = op.params["suite"]
            totals[suite if suite in NAMED_SUITES else "other"] += elapsed
    return {f"verify.suite_{name}_s": (value, "s") for name, value in totals.items()}


def per_layer(run: Run, tracer, cache_before, cache_after) -> dict:
    """Counts and seconds of the one traced pass; suite times of the untraced one."""
    from tracer import LAYERS

    stats = tracer.stats  # "layer.fn" -> [calls, self_s, total_s, yields]

    def calls(name):
        return stats[name][0]

    def total(name):
        return stats[name][2]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {}
    for layer in LAYERS:
        self_s = sum(s[1] for name, s in stats.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (self_s, "s")
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    metrics.update({
        "core.perm_new": (calls("core.Permutation.__post_init__"), "count"),
        "core.left_multiply.calls": (calls("core.left_multiply"), "count"),
        "core.left_inversions.calls": (calls("core.left_inversions"), "count"),
        "core.contains_pattern.calls": (calls("core.contains_pattern"), "count"),
        "core.reduced_words": (stats["core.iter_reduced_words"][3], "count"),
        "core.reduced_words_cache.lookups": (lookups, "count"),
        "core.reduced_words_cache.hit_ratio": (ratio(hits, lookups), "ratio"),
        "automata.step.calls": (calls("automata.step"), "count"),
        "automata.step_product.calls": (calls("automata.step_product"), "count"),
        "automata.classify.calls": (tracer.classified, "count"),
        "automata.dead_ratio": (ratio(tracer.dead, tracer.classified), "ratio"),
        "automata.exists_accepted.calls": (calls("automata.exists_accepted"), "count"),
        "sorting.trace_rows": (tracer.trace_rows, "count"),
        "sorting.pick.calls": (calls("sorting.PriorityOrder.pick"), "count"),
        "sorting.render_s": (total("sorting.SortTrace.to_table") + total("sorting.SortTrace.to_json"), "s"),
        "sorting.greedy.checks": (tracer.greedy_checks, "count"),
        "sorting.greedy.take_ratio": (ratio(tracer.greedy_taken, tracer.greedy_checks), "ratio"),
        "coxeter.c_factorization.calls": (calls("coxeter.c_factorization"), "count"),
        "trees.lexmin_word.calls": (calls("trees.lexmin_word"), "count"),
        "trees.render_s": (total("trees.export_tree_dot"), "s"),
        "cli.out_bytes": (run.out_chars / len(run.passes), "bytes"),
        # median over ops, so one burst on a long op cannot set the figure
        "trace.overhead_ratio": (statistics.median(
            traced / untraced for untraced, traced in zip(*run.passes)), "ratio"),
    })
    metrics.update(suite_times(run.ops, run.passes[0]))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="file for the full record (JSON)")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import permutree
    import permutree.cli
    from permutree import verify

    ops = build_ops(args.workload, args.seed, list(verify.SUITES))
    run = Run(permutree.cli.main, ops, Checker())
    record = {}
    if args.trace:
        from tracer import Tracer

        run.one_pass()  # untraced reference pass
        cache = permutree.core.all_reduced_words  # the lru_cache object itself
        cache_before = cache.cache_info()
        tracer = Tracer(permutree)
        tracer.install()
        run.main = permutree.cli.main  # the wrapper, so each op is a cli.main span
        run.one_pass(tracer)
        metrics = per_layer(run, tracer, cache_before, cache.cache_info())
        record["functions"] = {
            name: {"calls": s[0], "self_s": s[1], "total_s": s[2], "yields": s[3]}
            for name, s in sorted(tracer.stats.items()) if s[0]
        }
        record["spans"] = tracer.span_records()
    else:
        for _ in range(max(1, round(args.seconds / PASS_SECONDS[args.workload]))):
            run.one_pass()
        metrics = end_to_end(run)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "passes": len(run.passes),
        "percentile_samples": len(ops),
        # reported without a bound: its spread over ten seeds exceeded 0.25
        "op_p50_ref_ms": statistics.median(best_times(run.passes)) * 1e3,
        "wall_raw_s": sum(best_times(run.raw_passes)),
        "op_p90_raw_ms": p90(best_times(run.raw_passes)) * 1e3,
        "failures": run.failures[:10],
    }
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }
    if args.record:
        record.update(result, ops=[list(op.argv) for op in ops], op_seconds=run.raw_passes,
                      op_seconds_ref=run.passes)
        os.makedirs(os.path.dirname(args.record) or ".", exist_ok=True)
        with open(args.record, "w") as fh:
            json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
