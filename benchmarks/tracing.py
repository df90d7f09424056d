"""Per-layer tracing from outside the library.

Public functions of each oscm layer are wrapped at every module-level name
that refers to them, which is the name their callers resolve at call time
(for example both ``harness.brute_force_opt`` and ``algorithms.arrows``).
The online algorithms are wrapped by replacing their ``ALGORITHMS`` entries,
and the adversaries by replacing their ``next_request`` methods.

Spans (name, start, end, parent, job, size) are kept in memory in flat
arrays and written out once the run ends. Hot primitives are only counted:
a span around every ``pair_crossings`` call would cost more than the call.
"""

from __future__ import annotations

import dataclasses
import gzip
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from oscm import adversaries, algorithms

# (module, function, size of the game the call works on, or None)
SPANNED = (
    ("offline", "brute_force_opt", None),
    ("offline", "sorted_order_value", None),
    ("algorithms", "play", lambda args: args[0].n),
    ("crossings", "total_crossings", None),
    ("propagation", "arrows", None),
    ("propagation", "audit_no_double_cross", None),
    ("propagation", "audit_equator", None),
    ("harness", "audit_trace", lambda args: args[0].n),
    ("harness", "pair_type_histogram", None),
    ("harness", "run_experiment", None),
    ("harness", "sweep", None),
    ("cli", "main", None),
)
COUNTED = (("model", "apply"), ("crossings", "pair_crossings"))
CHOOSE_PREFIX = "algorithms.choose."
NEXT_REQUEST = "adversaries.next_request"
JOB = "bench.job"


class Recorder:
    """Collects spans and call counts; `install` wraps the library."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.size = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.job_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, size_of=None):
        nid = self._name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.size.append(size_of(args) if size_of else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the library in place; returns a function that undoes it."""
        undo = []

        def patch(obj, attr, value):
            undo.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)

        modules = [m for key, m in list(sys.modules.items()) if key == "oscm" or key.startswith("oscm.")]

        def rebind(layer, fn_name, wrap):
            fn = getattr(sys.modules[f"oscm.{layer}"], fn_name)
            wrapped = wrap(f"{layer}.{fn_name}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patch(module, attr, wrapped)

        for layer, fn_name, size_of in SPANNED:
            rebind(layer, fn_name, lambda name, fn, s=size_of: self.span(name, fn, s))
        for layer, fn_name in COUNTED:
            self.counts[f"{layer}.{fn_name}"] = 0
            rebind(layer, fn_name, self.counter)
        for cls in (adversaries.Thm1Adversary, adversaries.Thm2Adversary):
            patch(cls, "next_request", self.span(NEXT_REQUEST, cls.next_request))
        table = algorithms.ALGORITHMS
        for key, alg in list(table.items()):
            wrapped = dataclasses.replace(alg, choose=self.span(CHOOSE_PREFIX + alg.name, alg.choose))
            undo.append((table, key, alg))
            table[key] = wrapped

        def uninstall():
            for obj, attr, old in reversed(undo):
                if isinstance(obj, dict):
                    obj[attr] = old
                else:
                    setattr(obj, attr, old)

        return uninstall

    def job_span(self, job_id: int, fn):
        """Run one job under a root span that its layer spans descend from."""
        self.job_id = job_id
        try:
            return self.span(JOB, fn)()
        finally:
            self.job_id = -1

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,job,size\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.job[i]},{self.size[i]}\n"
                )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only,
        so recursion is not counted twice) and self seconds (minus the time
        of wrapped children)."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            nid = self.name[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                row["s"] += dur[i]
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        return out

    def scaling_exponent(self, name: str) -> float:
        """Log-log slope of the mean time per game against the game size n.

        For a choose span the game is its enclosing ``algorithms.play``
        span; for a sized span (``harness.audit_trace``) it is the span
        itself. Returns 0.0 when fewer than two sizes were seen."""
        per_game: dict[int, float] = defaultdict(float)
        for i in range(len(self.start)):
            label = self.names[self.name[i]]
            if label == name:
                per_game[i] += self.end[i] - self.start[i]
            elif label.startswith(name + "."):
                per_game[self.parent[i]] += self.end[i] - self.start[i]
        by_size: dict[int, list[float]] = defaultdict(list)
        for game, seconds in per_game.items():
            by_size[self.size[game]].append(seconds)
        points = [(math.log(n), math.log(sum(v) / len(v))) for n, v in by_size.items() if n > 0]
        if len(points) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        return sum((x - mx) * (y - my) for x, y in points) / sxx
