"""Span tracer that wraps hubridge's public functions at every binding.

hubridge modules import each other with ``from .x import f``, so every
consumer module holds its own reference to ``f``: patching
``hubridge.knn.neighbor_index_matrix`` alone misses every call that
``grid_search`` makes through ``hubridge.modelselect``. ``Tracer.installed``
therefore replaces each binding of a traced function in every loaded
hubridge module (or only in the listed consumers) and restores them on exit.

Spans are kept in memory with their parent, so self time (a span minus its
children) and "calls made under an ancestor" come out without double
counting. Bookkeeping done inside a wrapper, such as the tie statistics
taken on each distance block, is excluded from every enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module that defines it, attribute, span name, consumer modules or None for
# every hubridge module that binds the same object)
LAYERS = (
    ("hubridge.datamodel", "load_dataset", "datamodel.load", None),
    ("hubridge.experiment", "preprocess", "datamodel.preprocess", None),
    ("hubridge.targets", "select_targets", "targets.select", None),
    ("hubridge.targets", "indicator_matrix", "targets.indicator", None),
    ("hubridge.transform", "fit_move_labeled", "transform.fit", None),
    ("hubridge.transform", "fit_move_query", "transform.fit", None),
    ("hubridge.knn", "neighbor_index_matrix", "knn.neighbors", None),
    # targets binds the same distance routine for target selection; only the
    # k-NN lookup's binding counts as k-NN distance time.
    ("hubridge._arrays", "pairwise_sq_dists", "knn.distance", ("hubridge.knn",)),
    ("hubridge.knn", "majority_vote", "knn.vote", None),
    ("hubridge.knn", "Dissimilarity.map_labeled", "knn.map_labeled", None),
    ("hubridge.hubness", "nk_counts", "hubness.nk", None),
    ("hubridge.modelselect", "grid_search", "modelselect.grid_search", None),
    ("hubridge.knn", "evaluate", "experiment.evaluate", None),
    ("hubridge.transform", "solver_disagreement", "experiment.solver_gap", None),
    ("hubridge.experiment", "fit_timed", "experiment.fit_timed", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))


class Span:
    __slots__ = ("name", "parent", "start", "bookkeeping_at_start", "seconds",
                 "child_seconds", "k")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.bookkeeping_at_start = 0.0
        self.seconds = 0.0
        self.child_seconds = 0.0
        self.k = None  # neighbor count of an open knn.neighbors span

    def ancestors(self):
        s = self.parent
        while s is not None:
            yield s
            s = s.parent


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self._open: Span | None = None

    # -- installation -----------------------------------------------------

    def _bindings(self):
        """Yield (holder, attribute, original, span name) for every binding to wrap."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hubridge" or name.startswith("hubridge.")}
        for owner, attr, span, consumers in LAYERS:
            if "." in attr:  # a method: one binding, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(modules[owner], cls_name)
                yield cls, meth, cls.__dict__[meth], span
                continue
            original = getattr(modules[owner], attr)
            for name in (consumers or sorted(modules)):
                mod = modules[name]
                for key, value in list(vars(mod).items()):
                    if value is original:
                        yield mod, key, original, span

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding for the duration of the ``with`` block."""
        saved = []
        try:
            for holder, key, original, span in list(self._bindings()):
                saved.append((holder, key, original))
                setattr(holder, key, self.wrap(original, span))
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = time.perf_counter()
            parent = tracer._open
            if parent is not None and (parent.name == name or
                                       any(a.name == name for a in parent.ancestors())):
                return fn(*args, **kwargs)
            span = Span(name, parent)
            if name == "knn.neighbors":
                model = args[0]
                k = args[2] if len(args) > 2 else kwargs.get("k")
                span.k = model.k if k is None else int(k)
            tracer._open = span
            span.start = time.perf_counter()
            tracer.bookkeeping_s += span.start - t_enter
            span.bookkeeping_at_start = tracer.bookkeeping_s
            try:
                out = fn(*args, **kwargs)
            finally:
                t_exit = time.perf_counter()
                tracer._open = parent
                span.seconds = ((t_exit - span.start)
                                - (tracer.bookkeeping_s - span.bookkeeping_at_start))
                if parent is not None:
                    parent.child_seconds += span.seconds
                tracer.spans.append(span)
            tracer._count(span, args, out)
            tracer.bookkeeping_s += time.perf_counter() - t_exit
            return out

        return traced

    def _count(self, span: Span, args, out) -> None:
        c = self.counters
        if span.name == "datamodel.load":
            c["datamodel.load_bytes"] += os.path.getsize(args[0])
        elif span.name == "transform.fit":
            d, n = np.shape(args[0])
            c["transform.gram_gflop"] += 4.0 * d * d * n / 1e9  # X X^T and X (J X^T)
        elif span.name == "knn.distance":
            c["knn.distance_cells"] += out.size
            owner = next((a for a in span.ancestors() if a.name == "knn.neighbors"), None)
            if owner is not None:
                c["knn.query_rows"] += out.shape[0]
                if owner.k < out.shape[1]:
                    kth = np.partition(out, (owner.k - 1, owner.k), axis=1)
                    c["knn.tie_rows"] += int(np.count_nonzero(kth[:, owner.k - 1] == kth[:, owner.k]))
        elif span.name == "modelselect.grid_search":
            c["modelselect.cv_cells"] += len(out.table) * len(out.folds)

    # -- summaries --------------------------------------------------------

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_seconds(self, name: str) -> float:
        return sum(s.seconds - s.child_seconds for s in self.spans if s.name == name)

    def calls(self, name: str, under: str | None = None) -> int:
        return sum(1 for s in self.spans if s.name == name and
                   (under is None or any(a.name == under for a in s.ancestors())))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals under the names BENCHMARK.json lists (without trace.overhead_s)."""
        c = self.counters
        rows = c["knn.query_rows"]
        return {
            "datamodel.load_s": self.seconds("datamodel.load"),
            "datamodel.load_bytes": c["datamodel.load_bytes"],
            "datamodel.preprocess_s": self.seconds("datamodel.preprocess"),
            "targets.select_s": self.seconds("targets.select"),
            "targets.select_calls": self.calls("targets.select"),
            "targets.indicator_s": self.seconds("targets.indicator"),
            "transform.fit_s": self.seconds("transform.fit"),
            "transform.fit_calls": self.calls("transform.fit"),
            "transform.gram_gflop": c["transform.gram_gflop"],
            "knn.neighbors_s": self.seconds("knn.neighbors"),
            "knn.neighbors_calls": self.calls("knn.neighbors"),
            "knn.distance_s": self.seconds("knn.distance"),
            "knn.distance_cells": c["knn.distance_cells"],
            "knn.topk_self_s": self.self_seconds("knn.neighbors"),
            "knn.vote_s": self.seconds("knn.vote"),
            "knn.map_labeled_s": self.seconds("knn.map_labeled"),
            "knn.tie_share": c["knn.tie_rows"] / rows if rows else 0.0,
            "hubness.nk_s": self.seconds("hubness.nk"),
            "modelselect.grid_search_s": self.seconds("modelselect.grid_search"),
            "modelselect.grid_search_self_s": self.self_seconds("modelselect.grid_search"),
            "modelselect.cv_cells": c["modelselect.cv_cells"],
            "modelselect.cv_neighbors_calls": self.calls("knn.neighbors", "modelselect.grid_search"),
            "modelselect.cv_fit_calls": self.calls("transform.fit", "modelselect.grid_search"),
            "experiment.evaluate_s": self.seconds("experiment.evaluate"),
            "experiment.solver_gap_s": self.seconds("experiment.solver_gap"),
            "experiment.fit_timed_calls": self.calls("experiment.fit_timed"),
        }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_cells", "count"),
                         ("_bytes", "bytes"), ("_gflop", "GFLOP"), ("_share", "share")):
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {metric!r}")
