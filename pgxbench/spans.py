"""Layer spans for the traced run, recorded from outside pgx.

`install` replaces each pgx function that one layer module imported from
another with a wrapper, in the importing module's namespace only, so only
calls that cross a layer boundary become spans; calls inside a layer stay
untouched. Two spans are added by name, since their per-layer metrics are
wanted: GroupTable.element_orders (a method, so it has no importing
namespace) and census.enumerate_nilpotent (called within census once per
order).

Spans stay in memory as (name, start, end, parent, op) tuples and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "constructors", "groups", "spectrum", "powergraph", "census")

# Span names that report under one per-layer name.
GROUP = {
    "powergraph.build_directed": "powergraph.build_graph",
    "powergraph.build_undirected": "powergraph.build_graph",
    "census.scan_conjecture_2_9": "census.scan",
}


def _metric_name(span: str) -> str:
    if span.startswith("census.verify_"):
        return "census.verify"
    return GROUP.get(span, span)


def _sink_bytes(sink) -> int:
    try:
        return sink.tell()
    except (OSError, ValueError, AttributeError):
        return 0


def _validate_triples(g, report) -> int:
    if report.mode == "full":
        return g.size ** 3
    return int(report.mode.split("(", 1)[1].rstrip(")"))


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


# Work counters per span name: f(tracer, args, kwargs, result) -> None.
COUNTERS = {
    "constructors.build_group": lambda t, a, k, g: t.add(
        "constructors.build_group.table_mb", 4 * g.size ** 2 / 1e6 if g.has_table else 0),
    "groups.element_orders": lambda t, a, k, r: t.add(
        "groups.element_orders.elements", len(r)),
    "powergraph.oracle_counts": lambda t, a, k, r: t.add(
        "powergraph.oracle_counts.matrix_mb", a[0].size ** 2 / 1e6),
    "powergraph.build_directed": lambda t, a, k, r: t.add(
        "powergraph.build_graph.pairs", r.num_arcs),
    "powergraph.build_undirected": lambda t, a, k, r: t.add(
        "powergraph.build_graph.pairs", r.num_edges),
    "powergraph.export": lambda t, a, k, r: t.add(
        "powergraph.export.bytes", _sink_bytes(_arg(a, k, 2, "sink"))),
    "groups.read_cayley": lambda t, a, k, r: t.add(
        "groups.read_cayley.bytes", os.path.getsize(_arg(a, k, 0, "path"))),
    "groups.validate": lambda t, a, k, r: t.add(
        "groups.validate.triples", _validate_triples(a[0], r)),
    "constructors.p_group_catalog": lambda t, a, k, r: t.catalog_keys.add(
        (a[0], a[1], str(_arg(a, k, 2, "census_dir")))),
    "census.enumerate_nilpotent": lambda t, a, k, r: t.add(
        "census.enumerate_nilpotent.members", len(r[0])),
    "census.scan_conjecture_2_9": lambda t, a, k, r: t.add(
        "census.scan.rows", len(r.rows)),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.catalog_keys: set = set()
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self, modules: dict[str, object]) -> None:
        """modules maps each layer name to its imported pgx module."""
        by_module = {m.__name__: layer for layer, m in modules.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None)
                if (inspect.isfunction(obj) and home in by_module
                        and home != mod.__name__ and not attr.startswith("_")):
                    self._patch(mod, attr, f"{by_module[home]}.{obj.__name__}")
        self._patch(modules["groups"].GroupTable, "element_orders", "groups.element_orders")
        self._patch(modules["census"], "enumerate_nilpotent", "census.enumerate_nilpotent")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls, inclusive busy time, self time per layer,
        and the work counters."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            metric = _metric_name(name)
            calls[metric] += 1
            busy[metric] += end - start
            self_s[name.split(".", 1)[0]] += end - start - child[i]
        out: dict[str, float] = dict(self.counts)
        for metric in calls:
            out[f"{metric}.calls"] = calls[metric]
            out[f"{metric}.busy_s"] = busy[metric]
        for layer, value in self_s.items():
            out[f"{layer}.self_s"] = value
        n = calls.get("constructors.p_group_catalog", 0)
        out["constructors.p_group_catalog.distinct_ratio"] = (
            len(self.catalog_keys) / n if n else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: Path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"span": name, "start": round(start - t0, 7),
                                     "end": round(end - t0, 7), "parent": parent,
                                     "op": op}) + "\n")
