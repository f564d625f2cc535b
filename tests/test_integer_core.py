"""The integer graph core against test-local copies of the label-edge code.

A Graph stores sorted labels and sorted index pairs.  Each test here runs
the same input through the current code and through a copy of the code that
stored frozensets of label edges (the Graph itself, the holders-dict
coverage check of verify_decomposition and the label-adjacency set-up of
is_planar), and the two must agree exactly: values, orders, verdicts and
errors.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronthick import planarity
from kronthick.constructions import (
    kn_times_k2_decomposition,
    knnn_times_k2_decomposition,
)
from kronthick.errors import PreconditionError
from kronthick.graphs import (
    Family,
    Graph,
    ProductVertex,
    VertexLabel,
    is_triangle_free,
)
from kronthick.planarity import is_planar
from kronthick.verification import verify_decomposition

# ============================================================
# Reference copies of the label-edge code
# ============================================================


def _edge(a, b):
    """The canonical label edge: ends sorted, self-loops rejected."""
    if a == b:
        raise PreconditionError(f"self-loop at {a!r}")
    return (a, b) if a < b else (b, a)


class _LabelGraph:
    """The frozenset Graph: label edges as the stored form."""

    def __init__(self, vertices, edges=()):
        vset = frozenset(vertices)
        eset = frozenset(_edge(a, b) for a, b in edges)
        for a, b in eset:
            if a not in vset or b not in vset:
                raise PreconditionError(f"edge endpoint not in vertex set: {a!r}-{b!r}")
        self.vertices = tuple(sorted(vset))
        self.edges = tuple(sorted(eset))
        self.vertex_set = vset
        self.edge_set = eset

    @property
    def adjacency(self) -> dict:
        nbrs: dict = {v: [] for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    def __eq__(self, other) -> bool:
        return self.vertex_set == other.vertex_set and self.edge_set == other.edge_set


def _label_rotation(g: _LabelGraph):
    """is_planar's set-up before the integer core: None when non-planar."""
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.adjacency[v]] for v in verts]
    ok, order = planarity._lr_core(len(verts), adj, want_embedding=True)
    if not ok:
        return None
    assert planarity._is_plane_rotation(adj, order)
    return {v: tuple(verts[j] for j in ns) for v, ns in zip(verts, order)}


def _holders_report(target: _LabelGraph, parts) -> tuple:
    """The defect lists of verify_decomposition's holders-dict version."""
    holders: dict = {}
    for i, part in enumerate(parts):
        for e in part.edges:
            holders.setdefault(e, []).append(i)
    covered = set(holders)
    missing = sorted(target.edge_set - covered)
    extra = sorted(covered - target.edge_set)
    overlap = sorted((e, tuple(idx)) for e, idx in holders.items() if len(idx) > 1)
    nonplanar = [i for i, part in enumerate(parts) if _label_rotation(part) is None]
    return tuple(missing), tuple(extra), tuple(overlap), tuple(nonplanar)


# ============================================================
# Strategies
# ============================================================

_labels = st.builds(
    VertexLabel, st.sampled_from(list(Family)), st.integers(1, 4), st.sampled_from([None, 1, 2])
)
_vertices = st.one_of(_labels, st.tuples(_labels, _labels).map(lambda lr: ProductVertex(*lr)))


def _build(cls, vertices, edges):
    try:
        return cls(vertices, edges), None
    except PreconditionError as exc:
        return None, exc


@st.composite
def _raw_graphs(draw, vertices=_vertices, max_vertices=10, max_edges=25):
    """(vertices, edges): endpoints drawn from the vertices, loops allowed."""
    vs = draw(st.lists(vertices, max_size=max_vertices))
    if not vs:
        return vs, []
    ends = st.sampled_from(vs)
    return vs, draw(st.lists(st.tuples(ends, ends), max_size=max_edges))


# ============================================================
# Graph
# ============================================================


@given(_raw_graphs(), st.lists(_vertices, max_size=2), st.data())
def test_graph_matches_frozenset_graph(raw, outside, data):
    vs, es = raw
    pool = vs + outside
    if pool:
        ends = st.sampled_from(pool)
        es = es + data.draw(st.lists(st.tuples(ends, ends), max_size=2))
    old, old_exc = _build(_LabelGraph, vs, es)
    new, new_exc = _build(Graph, vs, es)
    assert type(new_exc) is type(old_exc)
    if old_exc is not None:
        # which bad edge a frozenset reports first depends on hashing, so
        # the messages can only agree when every defect is a self-loop
        if all(a in vs and b in vs for a, b in es):
            assert str(new_exc) == str(old_exc)
        return
    assert new.vertices == old.vertices
    assert new.edges == old.edges
    assert (new.num_vertices, new.num_edges) == (len(old.vertices), len(old.edges))
    assert new.pairs == tuple(
        (new.vertices.index(a), new.vertices.index(b)) for a, b in old.edges
    )
    # equality and hashing: the same sets given in another order, and a
    # second graph that may differ in vertices or edges
    same = Graph(list(reversed(vs)), [(b, a) for a, b in reversed(es)])
    assert same == new and hash(same) == hash(new)
    vs2 = data.draw(st.lists(st.sampled_from(vs), max_size=len(vs))) if vs else []
    vs2 += data.draw(st.lists(_vertices, max_size=1))
    kept = set(vs2)
    es2 = [e for e in es if e[0] in kept and e[1] in kept]
    es2 = data.draw(st.lists(st.sampled_from(es2), max_size=len(es2))) if es2 else []
    other = Graph(vs2, es2)
    assert (other == new) == (_LabelGraph(vs2, es2) == old)
    if other == new:
        assert hash(other) == hash(new)


def test_product_vertex_graph_matches_frozenset_graph():
    left = [VertexLabel(Family.U, i) for i in (1, 2)]
    right = [VertexLabel(Family.PLAIN, i, layer) for i in (1, 2, 3) for layer in (1, 2)]
    vs = [ProductVertex(a, c) for a in left for c in right] + left
    es = [e for k, e in enumerate(combinations(reversed(vs), 2)) if k % 3]
    old, new = _LabelGraph(vs, es), Graph(vs, es)
    assert new.vertices == old.vertices and new.edges == old.edges


# ============================================================
# verify_decomposition
# ============================================================

_BASE = kn_times_k2_decomposition(12)  # 3 parts of 44 edges on 24 vertices
_OUTSIDE = (
    VertexLabel(Family.X, 9, 1),
    VertexLabel(Family.PLAIN, 13, 2),
    ProductVertex(VertexLabel(Family.U, 1), VertexLabel(Family.V, 2)),
)


def _mutate(raw, target, op, data) -> None:
    """Apply one defect to raw parts, each a (vertex list, edge list)."""
    tvs = list(target.vertices)
    q = data.draw(st.integers(0, len(raw) - 1))
    vs, es = raw[q]
    if op == "missing" and es:
        for e in data.draw(st.lists(st.sampled_from(es), min_size=1, max_size=4, unique=True)):
            es.remove(e)
    elif op == "extra":
        a, b = data.draw(st.lists(st.sampled_from(tvs), min_size=2, max_size=2, unique=True))
        if _edge(a, b) not in target.edges:
            vs += [a, b]
            es.append((a, b))
    elif op == "outside":
        a = data.draw(st.sampled_from(_OUTSIDE))
        b = data.draw(st.sampled_from(tvs + list(_OUTSIDE)))
        if a != b:
            vs += [a, b]
            es.append((b, a))
    elif op == "triple":
        e = data.draw(st.sampled_from(target.edges))
        for i in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=2, max_size=3)):
            raw[i][0].extend(e)
            raw[i][1].append(e)
        raw.append((list(e), [e]))
    elif op == "nonplanar":
        # K_{3,3} on target vertices as a part of its own, or some edges of
        # another part moved in, which stays under the Euler prefilter
        if data.draw(st.booleans()):
            side1, side2 = tvs[:6:2], tvs[7:13:2]
            k33 = [(a, b) for a in side1 for b in side2]
            raw.append((side1 + side2, k33))
        else:
            r = (q + 1) % len(raw)
            moved = data.draw(st.lists(st.sampled_from(raw[r][1]), max_size=20, unique=True))
            vs += [x for e in moved for x in e]
            es += [e for e in moved if e not in es]


@given(st.lists(st.sampled_from(["missing", "extra", "outside", "triple", "nonplanar"]),
                max_size=4), st.data())
def test_verify_matches_holders_version(ops, data):
    raw = [(list(p.vertices), list(p.edges)) for p in _BASE.parts]
    for op in ops:
        _mutate(raw, _BASE.target, op, data)
    old_target = _LabelGraph(_BASE.target.vertices, _BASE.target.edges)
    report = verify_decomposition(_BASE.target, [Graph(vs, es) for vs, es in raw])
    expected = _holders_report(old_target, [_LabelGraph(vs, es) for vs, es in raw])
    got = (report.coverage_missing, report.coverage_extra, report.overlap, report.nonplanar_parts)
    assert got == expected
    assert report.passed == (not any(expected))


# ============================================================
# is_planar and is_triangle_free
# ============================================================

_plain = st.builds(VertexLabel, st.just(Family.PLAIN), st.integers(1, 9), st.sampled_from([1, 2]))


@given(_raw_graphs(vertices=_plain, max_vertices=18, max_edges=40))
def test_rotation_matches_label_adjacency_path(raw):
    vs, es = raw
    es = [e for e in es if e[0] != e[1]]
    verdict = is_planar(Graph(vs, es))
    rotation = _label_rotation(_LabelGraph(vs, es))
    assert verdict.planar == (rotation is not None)
    if verdict.planar:
        assert verdict.certificate.rotation == rotation


@pytest.mark.parametrize("case", ["kn_x_k2-256-first", "kn_x_k2-256-last", "knnn_x_k2-41"])
def test_rotation_matches_label_adjacency_path_on_large_parts(case):
    family, n, which = (case.split("-") + ["first"])[:3]
    d = (kn_times_k2_decomposition if family == "kn_x_k2" else knnn_times_k2_decomposition)(int(n))
    part = d.parts[0 if which == "first" else -1]
    if family == "kn_x_k2":
        assert part.num_edges == 1020
    verdict = is_planar(part)
    assert verdict.planar
    assert verdict.certificate.rotation == _label_rotation(_LabelGraph(part.vertices, part.edges))


_EIGHTEEN = [VertexLabel(Family.PLAIN, i, layer) for i in range(1, 10) for layer in (1, 2)]


@given(st.lists(st.tuples(st.sampled_from(_EIGHTEEN), st.sampled_from(_EIGHTEEN)), max_size=40),
       st.booleans())
def test_triangle_free_matches_brute_force(es, across_layers):
    # edges across the two layers only make a bipartite, triangle-free graph
    g = Graph(_EIGHTEEN, [(a, b) for a, b in es if a.layer != b.layer or not across_layers and a != b])
    es = set(g.edges)
    has_triangle = any(
        (a, b) in es and (b, c) in es and (a, c) in es
        for a, b, c in combinations(g.vertices, 3)
    )
    assert is_triangle_free(g) == (not has_triangle)
