"""Spans around calls into the pipeline's modules, recorded from outside.

``Tracer.installed()`` rebinds each hooked name (a module attribute, or a
class attribute for ``NovelVariableIndex.request_state``) to a wrapper that
records a span, and always restores the originals on exit, so untraced
passes run the program unmodified. A hook whose name no longer exists is
listed in ``Tracer.absent`` instead of failing the run.

Spans stay in memory as ``Span`` records (name, start, end, parent, run id,
counts) and are written out by the caller at the end. ``layer_metrics``
turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = "pipeline.run_pipeline"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _model_size(span: Span, result) -> None:
    model = result[0]
    span.counts["variables"] = model.num_variables
    span.counts["rows"] = len(model.constraints)
    span.counts["nonzeros"] = sum(len(con.coefficients) for con in model.constraints)


def _width(span: Span, result) -> None:
    span.counts["width"] = result.width


def _dropped(span: Span, result) -> None:
    span.counts["dropped"] = len(result[2])


def _entries(span: Span, result) -> None:
    span.counts["entries"] = len(result.entries)


def _pruned(span: Span, result) -> None:
    span.counts["pruned"] = result[1].removed


def _rounded(span: Span, result) -> None:
    span.counts["tries"] = result.tries_used
    span.counts["accepted"] = int(result.accepted)


def _highs(span: Span, result) -> None:
    span.counts["iterations"] = int(getattr(result, "nit", 0) or 0)


# (module, attribute path, span name, recorder of counts from the result)
HOOKS: tuple[tuple[str, str, str, Callable[[Span, Any], None] | None], ...] = (
    ("vnembed.pipeline", "validate_instance", "pipeline:validate_instance", None),
    ("vnembed.pipeline", "min_width_order_search", "pipeline:min_width_order_search", _width),
    ("vnembed.pipeline", "preprocess_profit", "pipeline:preprocess_profit", _dropped),
    ("vnembed.pipeline", "build_novel", "pipeline:build_novel", _model_size),
    ("vnembed.pipeline", "solve", "pipeline:solve", None),
    ("vnembed.pipeline", "decompose_novel", "pipeline:decompose_novel", _entries),
    ("vnembed.pipeline", "verify_decomposition", "pipeline:verify_decomposition", None),
    ("vnembed.pipeline", "prune_costly_mappings", "pipeline:prune_costly_mappings", _pruned),
    ("vnembed.pipeline", "round_profit", "pipeline:round_profit", _rounded),
    ("vnembed.pipeline", "round_cost", "pipeline:round_cost", _rounded),
    ("vnembed.rounding", "build_novel", "rounding:build_novel", _model_size),
    ("vnembed.rounding", "solve", "rounding:solve", None),
    ("vnembed.rounding", "collection_feasible", "rounding:collection_feasible", None),
    ("vnembed.formulations", "NovelVariableIndex.request_state",
     "formulations:NovelVariableIndex.request_state", None),
    ("vnembed.lpmodel", "linprog", "lpmodel:linprog", _highs),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def _wrap(self, original, name, record):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.close(idx)
            if record is not None:
                record(span, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, hooks=HOOKS):
        """Wrap every hook that resolves; restore all of them on exit."""
        restore: list[tuple[object, str, object]] = []
        self.absent = []
        try:
            for module_name, path, name, record in hooks:
                owner, attr = _resolve(module_name, path)
                if owner is None or attr not in vars(owner):
                    self.absent.append(name)
                    continue
                original = vars(owner)[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, record))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def _resolve(module_name: str, path: str) -> tuple[object | None, str]:
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None, attr
    return owner, attr


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so their
    durations add up without overlap.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (sums over all its runs).

    A layer time is the self time of its spans wherever hooked calls nest
    inside it (solve around HiGHS, preprocessing around solo builds and
    solves, sampling around feasibility checks), so the layer times and
    ``pipeline.self_s`` add up to the traced wall time.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, float]] = {}
    highs = {"pipeline:solve": 0.0, "rounding:solve": 0.0}
    widths = []
    for span, own_s in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + own_s
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            bucket[key] = bucket.get(key, 0) + value
        if span.name == "lpmodel:linprog" and span.parent is not None:
            caller = spans[span.parent].name
            if caller in highs:
                highs[caller] += span.duration
        if "width" in span.counts:
            widths.append(span.counts["width"])

    def t(name):
        return total.get(name, 0.0)

    def s(name):
        return self_total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    rounds = ("pipeline:round_profit", "pipeline:round_cost")
    tries = sum(c(name, "tries") for name in rounds)
    accepted = sum(c(name, "accepted") for name in rounds)
    return {
        "lpmodel.highs_joint_s": highs["pipeline:solve"],
        "lpmodel.highs_solo_s": highs["rounding:solve"],
        "lpmodel.highs_s": t("lpmodel:linprog"),
        "lpmodel.highs_iterations": c("lpmodel:linprog", "iterations"),
        "lpmodel.assemble_s": s("pipeline:solve") + s("rounding:solve"),
        "lpmodel.solve_calls": n("pipeline:solve") + n("rounding:solve"),
        "lp.variables": c("pipeline:build_novel", "variables"),
        "lp.rows": c("pipeline:build_novel", "rows"),
        "lp.nonzeros": c("pipeline:build_novel", "nonzeros"),
        "lp.solo_variables": c("rounding:build_novel", "variables"),
        "formulations.build_solo_s": t("rounding:build_novel"),
        "formulations.build_joint_s": t("pipeline:build_novel"),
        "formulations.build_s": t("rounding:build_novel") + t("pipeline:build_novel"),
        "formulations.build_calls": n("rounding:build_novel") + n("pipeline:build_novel"),
        "rounding.preprocess_self_s": s("pipeline:preprocess_profit"),
        "rounding.dropped": c("pipeline:preprocess_profit", "dropped"),
        "extraction.search_s": t("pipeline:min_width_order_search"),
        "extraction.width_max": max(widths, default=0),
        "extraction.width_sum": sum(widths),
        "decomposition.decompose_s": t("pipeline:decompose_novel"),
        "decomposition.verify_s": t("pipeline:verify_decomposition"),
        "decomposition.entries": c("pipeline:decompose_novel", "entries"),
        "formulations.request_state_s": t("formulations:NovelVariableIndex.request_state"),
        "rounding.sample_s": sum(s(name) for name in rounds),
        "rounding.tries": tries,
        "rounding.accepted_per_try": accepted / tries if tries else 0.0,
        "model.feasibility_s": t("rounding:collection_feasible"),
        "model.feasibility_calls": n("rounding:collection_feasible"),
        "rounding.prune_s": t("pipeline:prune_costly_mappings"),
        "rounding.pruned_entries": c("pipeline:prune_costly_mappings", "pruned"),
        "model.validate_s": t("pipeline:validate_instance"),
        "pipeline.self_s": s(ROOT),
    }
