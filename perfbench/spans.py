"""In-memory spans around rolemodel's public functions, and per-layer self time.

A ``Tracer`` replaces each traced function by a wrapper that records a span
(name, start, end, parent) and restores the originals when it is removed.
Names are patched in the namespace of the module that *calls* them:
``sudoku`` and ``minsum`` import kernels such as ``minor_permanents`` and
``soft_mi`` by name, so patching only the defining module records nothing.

A span's self time is its duration minus the part of that interval its
child spans cover. Every traced call happens inside a ``cli.main`` span, so
the self times of one pass add up to the time spent in ``cli.main``; the
rest of the pass (the benchmark's own loop) is reported as unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import time

#: Span names in report order; each yields ``<name>.calls`` and ``<name>.self_s``.
SPAN_NAMES = (
    "permanent.minor_permanents",
    "permanent.minor_permanents_split",
    "permanent.head_tail_split",
    "sudoku.constraint_exact",
    "sudoku.constraint_approx",
    "sudoku.bp_solve",
    "sudoku.exit_point_trials",
    "sudoku.calibrate_sigma",
    "sudoku.harvest_constraint_inputs",
    "sudoku.alpha_objective",
    "sudoku.alpha_objective.eval",
    "train.train_parametric",
    "minsum.simulate_batch",
    "minsum.tanh_rule_rows",
    "minsum.evaluate_table",
    "train.empirical_ed",
    "train.PostTable.ingest_batch",
    "probs.soft_mi",
    "cli.main",
)

#: Metric names that differ from ``<span>.<field>``.
_RENAMED = {
    "sudoku.alpha_objective.eval.calls": "sudoku.alpha_objective.evals",
    "sudoku.alpha_objective.eval.self_s": "sudoku.alpha_objective.eval_s",
}

#: Counts read off a span's result, by span name.
_COUNTERS = {
    "sudoku.bp_solve": lambda r: {"iterations": r.iterations,
                                  "degenerate_rows": r.degenerate_rows},
    "train.train_parametric": lambda r: {"evaluations": r.evaluations},
    "minsum.simulate_batch": lambda r: {"samples": len(r)},
}

#: Unit and direction of every per-layer metric, in report order.
PER_LAYER: dict[str, tuple[str, str]] = {}
for _span in SPAN_NAMES:
    for _field, _unit in (("calls", "count"), ("self_s", "s")):
        _key = f"{_span}.{_field}"
        PER_LAYER[_RENAMED.get(_key, _key)] = (_unit, "lower")
PER_LAYER.update({
    "sudoku.bp_solve.iterations": ("count", "lower"),
    "sudoku.bp_solve.degenerate_rows": ("count", "lower"),
    "sudoku.calibrate_sigma.bisection_steps": ("count", "lower"),
    "sudoku.alpha_objective.build_s": ("s", "lower"),
    "train.train_parametric.evaluations": ("count", "lower"),
    "minsum.simulate_batch.samples": ("count", "higher"),
    "trace.run_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end=None, parent=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts

    def as_dict(self, index: int) -> dict:
        doc = {"id": index, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent}
        if self.counts:
            doc.update(self.counts)
        return doc


class Tracer:
    """Records spans of one traced pass; single-threaded, like the program."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def _wrap_alpha_objective(self, fn):
        build = self.wrap("sudoku.alpha_objective", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.wrap("sudoku.alpha_objective.eval", build(*args, **kwargs))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's public functions for the duration of the block."""
        from rolemodel import cli, minsum, sudoku, train

        points = [
            (sudoku, "minor_permanents", "permanent.minor_permanents"),
            (sudoku, "minor_permanents_split", "permanent.minor_permanents_split"),
            (sudoku, "head_tail_split", "permanent.head_tail_split"),
            (sudoku, "constraint_exact", "sudoku.constraint_exact"),
            (sudoku, "constraint_approx", "sudoku.constraint_approx"),
            (sudoku, "bp_solve", "sudoku.bp_solve"),
            (sudoku, "exit_point_trials", "sudoku.exit_point_trials"),
            (sudoku, "calibrate_sigma", "sudoku.calibrate_sigma"),
            (sudoku, "harvest_constraint_inputs", "sudoku.harvest_constraint_inputs"),
            (sudoku, "train_parametric", "train.train_parametric"),
            (sudoku, "soft_mi", "probs.soft_mi"),
            (minsum, "simulate_batch", "minsum.simulate_batch"),
            (minsum, "tanh_rule_rows", "minsum.tanh_rule_rows"),
            (minsum, "evaluate_table", "minsum.evaluate_table"),
            (minsum, "empirical_ed", "train.empirical_ed"),
            (minsum, "soft_mi", "probs.soft_mi"),
            (train.PostTable, "ingest_batch", "train.PostTable.ingest_batch"),
            (cli, "main", "cli.main"),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]
        saved.append((sudoku, "alpha_objective", sudoku.alpha_objective))
        try:
            for owner, attr, name in points:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), _COUNTERS.get(name)))
            sudoku.alpha_objective = self._wrap_alpha_objective(sudoku.alpha_objective)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [(s.end - s.start) - covered(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer totals of one pass whose wall time was ``wall_s``.

    ``trace.unattributed_s`` is ``wall_s`` minus every span's self time, so
    the self times plus the remainder add up to the pass's wall time.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        calls, self_s = f"{span.name}.calls", f"{span.name}.self_s"
        out[_RENAMED.get(calls, calls)] += 1
        out[_RENAMED.get(self_s, self_s)] += own
        for key, value in (span.counts or {}).items():
            out[f"{span.name}.{key}"] += value
        if span.name == "sudoku.alpha_objective":
            out["sudoku.alpha_objective.build_s"] += span.end - span.start
        if span.name == "probs.soft_mi" and _has_ancestor(spans, i, "sudoku.calibrate_sigma"):
            out["sudoku.calibrate_sigma.bisection_steps"] += 1
    attributed = sum(out[name] for name in PER_LAYER if name.endswith(("self_s", "eval_s")))
    out["trace.run_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed
    return out
