"""Traced mode: wrappers installed from outside over permutree's layers.

Every public function of each module, plus the few methods and the private
greedy extractor that per-layer metrics need, is replaced by a wrapper in
every module namespace that bound it, so calls made inside the package go
through the wrappers too.  Nothing under ``src/`` changes.

- Each wrapped call adds to its function's call count and self time (time
  inside the call minus time inside wrapped calls it makes).
- Each op and each entry into a layer from another layer opens a span that
  carries the op id and its parent span.  Spans with the same op, parent and
  function are merged into one record with a count, because a single
  ``count --n 9`` re-enters ``core`` hundreds of thousands of times.
- Counters that need a call's arguments or result (dead ``classify``
  results, ``is_left_inversion`` answers under greedy extraction, rows of a
  sort trace, words yielded by ``iter_reduced_words``) are kept by hooks.
"""
from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("core", "automata", "sorting", "coxeter", "trees", "verify", "cli")

# (layer, class, method) wrapped besides the public module functions
METHODS = (
    ("core", "Permutation", "__post_init__"),
    ("sorting", "PriorityOrder", "pick"),
    ("sorting", "SortTrace", "to_table"),
    ("sorting", "SortTrace", "to_json"),
)
PRIVATE = (("sorting", "_greedy_extract"),)


class Span:
    __slots__ = ("id", "op", "parent", "layer", "name", "count", "total", "children")

    def __init__(self, id, op, parent, layer, name):
        self.id, self.op, self.parent, self.layer, self.name = id, op, parent, layer, name
        self.count, self.total, self.children = 0, 0.0, {}

    def child(self, spans: list, layer: str, name: str) -> Span:
        span = self.children.get(name)
        if span is None:
            span = self.children[name] = Span(len(spans), self.op, self, layer, name)
            spans.append(span)
        return span

    def record(self) -> dict:
        inner = sum(c.total for c in self.children.values())
        return {
            "id": self.id, "op": self.op, "parent": None if self.parent is None else self.parent.id,
            "layer": self.layer, "fn": self.name, "count": self.count,
            "total_s": self.total, "self_s": self.total - inner,
        }


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, list] = {}  # "layer.fn" -> [calls, self_s, total_s, yields]
        self.spans: list[Span] = []
        self.stack: list[list] = []  # frames: [layer, child seconds, span]
        self.dead = self.classified = 0
        self.greedy_depth = self.greedy_checks = self.greedy_taken = 0
        self.trace_rows = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = self.wrap(obj, layer, name)
        for layer, name in PRIVATE:
            obj = getattr(modules[layer], name)
            replaced[id(obj)] = self.wrap(obj, layer, name)
        for layer, cls, method in METHODS:
            owner = getattr(modules[layer], cls)
            setattr(owner, method, self.wrap(getattr(owner, method), layer, f"{cls}.{method}"))
        for module in [self.package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
        # run_suite looks its runners up in this table, not in the namespace
        suites = modules["verify"].SUITES
        for name, (runner, *bounds) in suites.items():
            suites[name] = (replaced.get(id(runner), runner), *bounds)

    def wrap(self, fn, layer: str, name: str):
        qual = f"{layer}.{name}"
        stats = self.stats.setdefault(qual, [0, 0.0, 0.0, 0])
        hook = getattr(self, f"_hook_{name.replace('.', '_')}", None)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, qual, stats)
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            top = stack[-1]
            span = top[2] if top[0] == layer else top[2].child(spans, layer, qual)
            frame = [layer, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs) if hook is None else hook(fn, args, kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[1] += elapsed - frame[1]
                stats[2] += elapsed
                stack[-1][1] += elapsed
                if span is not top[2]:
                    span.count += 1
                    span.total += elapsed
            return result

        return wrapper

    def _wrap_generator(self, fn, layer, qual, stats):
        """Each resumption is timed as a call into the layer; yields are counted."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                top = stack[-1]
                span = top[2] if top[0] == layer else top[2].child(spans, layer, qual)
                frame = [layer, 0.0, span]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stats[1] += elapsed - frame[1]
                    stats[2] += elapsed
                    stack[-1][1] += elapsed
                    if span is not top[2]:
                        span.count += 1
                        span.total += elapsed
                stats[3] += 1
                yield item

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _hook_classify(self, fn, args, kwargs):
        status = fn(*args, **kwargs)
        self.classified += 1
        self.dead += status.value == "dead"
        return status

    def _hook__greedy_extract(self, fn, args, kwargs):
        self.greedy_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self.greedy_depth -= 1

    def _hook_is_left_inversion(self, fn, args, kwargs):
        answer = fn(*args, **kwargs)
        if self.greedy_depth:
            self.greedy_checks += 1
            self.greedy_taken += answer
        return answer

    def _hook_permutree_sort(self, fn, args, kwargs):
        trace = fn(*args, **kwargs)
        self.trace_rows += len(trace.steps)
        return trace

    _hook_sort_single = _hook_permutree_sort

    # -- ops --------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        root = Span(len(self.spans), op_id, None, "bench", "op")
        self.spans.append(root)
        self.stack.append(["bench", 0.0, root])

    def end_op(self, elapsed: float) -> None:
        frame = self.stack.pop()
        frame[2].count += 1
        frame[2].total += elapsed

    def span_records(self) -> list[dict]:
        return [span.record() for span in self.spans]
