"""Spans and counts recorded from outside the library.

``Tracer.installed()`` rebinds selected public functions in every loaded
``reoptlab`` module to wrappers that record a span per call, plus the
work counts the function already returns; leaving the block restores the
originals.  Calls made between library modules go through module globals,
so nested calls (a hint falling back to a search core) are seen too.
Spans stay in memory and are folded into per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from reoptlab import hints
from reoptlab.strips import SearchBudgetError


class CapExceeded(Exception):
    """A route call ran past the benchmark's wall-clock cap."""


def _pair_second(result) -> dict:
    return {"work": result[1]}


def _reuse(result) -> dict:
    return {"hits": int(result.hint_used), "work": result.work_units}


# (module, function, layer name, counter extractor).  The ``*_stats``
# functions carry the work counts; their thin public twins call them
# through module globals, so tracing the twin as well would count twice.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("solvers", "solve_dpll_stats", "solvers.solve_dpll", _pair_second),
    ("graphs", "decide_cover_stats", "graphs.decide_cover", lambda r: {"nodes": r[1]}),
    ("graphs", "warm_start_cover_stats", "graphs.warm_start_cover",
     lambda r: {"hits": int(r[1]), "work": r[2]}),
    ("strips", "plan_exists_stats", "strips.plan_exists", lambda r: {"expanded": r[1]}),
    ("strips", "validate_plan_stats", "strips.validate_plan", _pair_second),
    ("hints", "reuse_model", "hints.reuse_model", _reuse),
    ("hints", "reuse_plan", "hints.reuse_plan", _reuse),
    ("hints", "lookup", "hints.lookup", lambda r: {"misses": int(r is hints.MISS)}),
    ("hints", "compile_table", "hints.compile_table", lambda r: {"entries": len(r.entries)}),
    ("cnf", "apply_changes", "cnf.apply_changes", None),
    ("dimacs", "parse_dimacs", "dimacs.parse_dimacs", None),
    ("dimacs", "serialize_dimacs", "dimacs.serialize_dimacs", None),
    ("graphs", "parse_edge_list", "graphs.parse_edge_list", None),
    ("strips", "instance_from_json", "strips.instance_from_json", None),
    ("gadgets", "build_gadget", "gadgets.build_gadget", None),
    ("gadgets", "gadget_add_unit", "gadgets.unit_edit", None),
    ("gadgets", "gadget_remove_unit", "gadgets.unit_edit", None),
    ("reductions", "reduce_unique_model", "reductions.reduce_unique_model", None),
    ("replanning", "sat_to_replanning", "replanning.sat_to_replanning", None),
]


@dataclass
class Span:
    name: str
    phase: str
    span_id: int
    parent: int | None
    start: float
    end: float
    capped: bool


class Tracer:
    """Collects spans and counts while active; ``phase`` labels them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.phase = "setup"
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        capped = False
        start = time.perf_counter()
        try:
            yield
        except (CapExceeded, SearchBudgetError):
            capped = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(name, self.phase, span_id, parent, start, end, capped))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bucket = self.counts[(self.phase, name)]
                for key, value in counter(result).items():
                    bucket[key] += value
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target in every loaded reoptlab module, then restore."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("reoptlab") and m]
        saved = []
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"reoptlab.{module_name}"], attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_stats(self, phase: str) -> dict[str, dict[str, float]]:
        """Per layer name: calls, inclusive time, self time, capped calls and counts."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s.phase != phase:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["time_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child_time[s.span_id]
            row["capped"] += s.capped
        for (span_phase, name), counts in self.counts.items():
            if span_phase == phase:
                for key, value in counts.items():
                    out[name][key] += value
        return out
