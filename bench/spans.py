"""Spans around the calls into drcw's layers, recorded from outside.

``Tracer.install()`` replaces every public function of drcw.cli,
drcw.design, drcw.nullspec, drcw.sdp, drcw.analysis and drcw.document,
wherever a drcw module holds a reference to it (``from .x import f``
copies included), with a wrapper that records a span: name, start, end,
parent span and operation id. ``uninstall()`` puts the originals back.
The wrappers pass arguments and results through untouched, so a traced
run writes the same bytes as an untraced one; run.py checks that.

A few wrappers also read health numbers off the call's result (solver
iterations and gap, rounding objective and candidates, CAF cells, bytes
of exported text, null residual margin). Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "design", "nullspec", "sdp", "analysis", "document")

# per-layer timing metric -> the functions whose spans it sums per operation
TIMED = {
    "nullspec.basis_s": ("nullspec.constraint_basis",),
    "nullspec.form_s": ("nullspec.quadratic_form",),
    "sdp.solve_s": ("sdp.solve_partition_sdp",),
    "design.round_s": ("design.round_solution",),
    "design.recover_s": ("design.recover_amplitudes",),
    "analysis.metrics_s": ("analysis.compute_metrics",),
    "analysis.caf_s": ("analysis.composite_ambiguity",),
    "document.caf_csv_s": ("document.caf_csv",),
    "document.svg_s": ("document.svg_line_plot", "document.svg_heatmap"),
    "document.save_s": ("document.save_document",),
}
# per-layer count metric -> the health number it sums per operation
COUNTED = {
    "sdp.iterations": "iterations",
    "design.round_candidates": "candidates",
    "analysis.caf_cells": "cells",
    "document.bytes_written": "bytes",
}


def _health(name: str, args, kwargs, result) -> dict | None:
    if name == "nullspec.max_null_violation":
        return {"margin": result / (1e-8 * len(args[0]))}
    if name == "sdp.solve_partition_sdp":
        return {"iterations": result.iterations, "gap": result.residuals.duality_gap,
                "bound": result.dual_bound}
    if name == "design.round_solution":
        trials = kwargs["trials"] if "trials" in kwargs else args[2]
        return {"objective": result.objective,
                "candidates": 1 if result.used_rank1_shortcut else trials}
    if name == "analysis.composite_ambiguity":
        return {"cells": result.values.size}
    if name.startswith("document.") and isinstance(result, str):
        return {"bytes": len(result) if result.isascii() else len(result.encode())}
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id, health)
        self.op = None
        self._stack: list[int] = []
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"drcw.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        self._patches = []
        for name, mod in list(sys.modules.items()):
            if name == "drcw" or name.startswith("drcw."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrapped and wrapped[id(val)][0] is val:
                        self._patches.append((mod, attr, val, wrapped[id(val)][1]))

    def install(self) -> None:
        for mod, attr, _, traced in self._patches:
            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            spans[idx] = (name, start, end, parent, self.op, _health(name, args, kwargs, result))
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation sums, reported as their median over operations;
        margins and gaps as their worst value; the rounding ratio as its
        mean over designs."""
        spans = self.spans
        child_time = defaultdict(float)
        children = defaultdict(list)
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        per_op = defaultdict(lambda: defaultdict(float))
        margins, gaps, ratios = [0.0], [0.0], []
        for i, (name, start, end, _, op, health) in enumerate(spans):
            sums = per_op[op]
            sums["trace.calls_per_op"] += 1
            sums[name.split(".")[0] + ".self_s"] += end - start - child_time[i]
            for metric, names in TIMED.items():
                if name in names:
                    sums[metric] += end - start
            for metric, key in COUNTED.items():
                if health and key in health:
                    sums[metric] += health[key]
            if health and "margin" in health:
                margins.append(health["margin"])
            if health and "gap" in health:
                gaps.append(health["gap"] / health["bound"])
            if name == "design.design_nm_drcw":
                found = {}
                for c in children[i]:
                    found.update(spans[c][5] or {})
                if "objective" in found and "bound" in found:
                    ratios.append(found["objective"] / found["bound"])
        names = (list(TIMED) + list(COUNTED) + [f"{layer}.self_s" for layer in LAYERS]
                 + ["trace.calls_per_op"])
        out = {m: statistics.median(per_op[op][m] for op in per_op) if per_op else 0.0 for m in names}
        out["nullspec.null_margin"] = max(margins)
        out["sdp.gap_rel"] = max(gaps)
        out["design.rounding_ratio"] = statistics.fmean(ratios) if ratios else 0.0
        return out

    def call_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one wrapper adds to a call: a no-op timed bare and
        wrapped, median over repeats. The spans it records are dropped."""

        def noop():
            return None

        traced = self._wrap("trace.noop", noop)
        kept = len(self.spans)
        costs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            costs.append((time.perf_counter() - start - bare) / calls)
            del self.spans[kept:]
        return max(statistics.median(costs), 0.0)

    def dump(self) -> list:
        return [list(span) for span in self.spans]
