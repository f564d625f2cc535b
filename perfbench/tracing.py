"""Spans around the calls between kronthick's layers, recorded from outside.

``Tracer.install`` swaps the module-level bindings through which one layer
calls another (``kronthick.verification.is_planar``,
``kronthick.cli.to_json`` and so on) for wrappers that record a span.  A
span is ``(name, start, end, parent index, count, size)``, where count and
size are two numbers read from the call (for example planar or not, and
edges tested).  Nothing is installed in the untraced run.  Spans stay in
memory until ``write``; ``layer_metrics`` turns them into per-layer times
and counts.
"""

from __future__ import annotations

import importlib
import json
import os
import time


def _num_edges(args, result):
    return result.num_edges


def _parts(args, result):
    return len(result.parts)


def _part_edges(args, result):
    return sum(p.num_edges for p in result.parts)


def _planar(args, result):
    return int(result.planar)


def _edges_tested(args, result):
    return args[0].num_edges


def _accepted(args, result):
    return int(result)


def _list_len(args, result):
    return len(args[1])


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _nodes(args, result):
    return result.nodes


_GENERATORS = {
    "cli": ("make_complete", "make_complete_bipartite", "make_complete_tripartite"),
    "constructions": ("make_complete", "make_complete_bipartite", "make_complete_tripartite"),
    "products": ("make_complete", "make_complete_bipartite"),
    "serialize": ("make_complete_bipartite",),
}

# (module, attribute, span name, count, size)
BINDINGS = (
    [(mod, name, "graphs.generate", None, None)
     for mod, names in _GENERATORS.items() for name in names]
    + [
        ("constructions", "times_k2", "products.times_k2", _num_edges, None),
        ("cli", "kn_times_k2_decomposition", "constructions.build", _parts, _part_edges),
        ("cli", "knnn_times_k2_decomposition", "constructions.build", _parts, _part_edges),
        ("cli", "chen_yin_k4p4p", "constructions.build", _parts, _part_edges),
        ("cli", "verify_decomposition", "verification.verify", None, None),
        ("constructions", "verify_decomposition", "verification.verify", None, None),
        ("oracle", "verify_decomposition", "verification.verify", None, None),
        ("verification", "is_planar", "planarity.is_planar", _planar, _edges_tested),
        ("constructions", "is_planar", "planarity.is_planar", _planar, _edges_tested),
        ("oracle", "is_planar", "planarity.is_planar", _planar, _edges_tested),
        ("oracle", "is_planar_edge_list", "planarity.edge_list", _accepted, _list_len),
        ("cli", "thickness_lower_bound", "bounds.lower", None, None),
        ("cli", "product_lower_bound", "bounds.lower", None, None),
        ("cli", "to_json", "serialize.emit", _text_bytes, None),
        ("cli", "decomposition_document", "serialize.emit", None, None),
        ("cli", "report_document", "serialize.emit", None, None),
        ("cli", "load_json", "serialize.parse", _file_bytes, None),
        ("cli", "load_seed_file", "serialize.parse", _file_bytes, None),
        ("cli", "decomposition_from_document", "serialize.parse", None, None),
        ("oracle", "find_planar_partition", "oracle.search", _nodes, None),
    ]
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def wrap(self, fn, name: str, count, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, -1, 0, 0))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, 0, 0)
            spans[idx] = (
                name, t0, t1, parent,
                count(args, result) if count else 0,
                size(args, result) if size else 0,
            )
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every binding that exists; returns the ones that do not."""
        missing = []
        for mod_name, attr, name, count, size in BINDINGS:
            mod = importlib.import_module(f"kronthick.{mod_name}")
            orig = getattr(mod, attr, None)
            if orig is None:
                missing.append(f"kronthick.{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name, count, size))
        return missing

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, count, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# Per-layer metric names and units, in report order.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("graphs.target_s", "s"),
    ("products.times_k2_s", "s"),
    ("products.edges_out", "count"),
    ("constructions.build_s", "s"),
    ("constructions.parts", "count"),
    ("constructions.part_edges", "count"),
    ("verification.coverage_s", "s"),
    ("verification.calls", "count"),
    ("planarity.is_planar_s", "s"),
    ("planarity.is_planar_calls", "count"),
    ("planarity.edges_tested", "count"),
    ("planarity.planar_ratio", "ratio"),
    ("planarity.edge_list_s", "s"),
    ("planarity.edge_list_calls", "count"),
    ("planarity.edge_list_accept_ratio", "ratio"),
    ("bounds.lower_s", "s"),
    ("serialize.emit_s", "s"),
    ("serialize.emit_bytes", "bytes"),
    ("serialize.parse_s", "s"),
    ("serialize.parse_bytes", "bytes"),
    ("oracle.search_s", "s"),
    ("oracle.nodes", "count"),
    ("oracle.nodes_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(spans, passes: int, overhead_ratio: float) -> dict:
    """Per-pass layer self times, total times and counts from a traced run."""
    own = self_times(spans)
    agg: dict = {}
    for s, t in zip(spans, own):
        a = agg.setdefault(s[0], [0.0, 0.0, 0, 0, 0])  # self, total, count, size, calls
        a[0] += t
        a[1] += s[2] - s[1]
        a[2] += s[4]
        a[3] += s[5]
        a[4] += 1

    def get(name: str, i: int):
        return agg.get(name, (0.0, 0.0, 0, 0, 0))[i]

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    SELF, TOTAL, COUNT, SIZE, CALLS = range(5)
    search_wall = get("oracle.exact_thickness", TOTAL)
    return {
        "cli.self_s": per_pass(get("cli.main", SELF)),
        "graphs.target_s": per_pass(get("graphs.generate", SELF)),
        "products.times_k2_s": per_pass(get("products.times_k2", SELF)),
        "products.edges_out": per_pass(get("products.times_k2", COUNT)),
        "constructions.build_s": per_pass(get("constructions.build", SELF)),
        "constructions.parts": per_pass(get("constructions.build", COUNT)),
        "constructions.part_edges": per_pass(get("constructions.build", SIZE)),
        "verification.coverage_s": per_pass(get("verification.verify", SELF)),
        "verification.calls": per_pass(get("verification.verify", CALLS)),
        "planarity.is_planar_s": per_pass(get("planarity.is_planar", TOTAL)),
        "planarity.is_planar_calls": per_pass(get("planarity.is_planar", CALLS)),
        "planarity.edges_tested": per_pass(get("planarity.is_planar", SIZE)),
        "planarity.planar_ratio": ratio(get("planarity.is_planar", COUNT), get("planarity.is_planar", CALLS)),
        "planarity.edge_list_s": per_pass(get("planarity.edge_list", TOTAL)),
        "planarity.edge_list_calls": per_pass(get("planarity.edge_list", CALLS)),
        "planarity.edge_list_accept_ratio": ratio(get("planarity.edge_list", COUNT), get("planarity.edge_list", CALLS)),
        "bounds.lower_s": per_pass(get("bounds.lower", SELF)),
        "serialize.emit_s": per_pass(get("serialize.emit", SELF)),
        "serialize.emit_bytes": per_pass(get("serialize.emit", COUNT)),
        "serialize.parse_s": per_pass(get("serialize.parse", SELF)),
        "serialize.parse_bytes": per_pass(get("serialize.parse", COUNT)),
        "oracle.search_s": per_pass(get("oracle.search", SELF) + get("oracle.exact_thickness", SELF)),
        "oracle.nodes": per_pass(get("oracle.search", COUNT)),
        "oracle.nodes_per_s": ratio(get("oracle.search", COUNT), search_wall),
        "trace.overhead_ratio": overhead_ratio,
    }
