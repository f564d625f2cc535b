from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronthick.errors import PreconditionError
from kronthick.graphs import (
    Family,
    Graph,
    ProductVertex,
    VertexLabel,
    induced_subgraph,
    is_triangle_free,
    make_complete,
    make_complete_bipartite,
    make_complete_tripartite,
    make_cycle,
    make_path,
)
from kronthick.planarity import is_planar
from kronthick.products import bipartite_factor_split, kronecker_product, times_k2


def _degrees(g: Graph) -> Counter:
    return Counter(v for e in g.edges for v in e)


def _nx_graph(g: Graph):
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges)
    h.add_nodes_from(g.vertices)
    return nx, h


# ============================================================
# Generators
# ============================================================


def test_complete_sizes():
    assert make_complete(5).num_edges == 10
    assert make_complete(1).num_edges == 0
    assert make_complete(1).num_vertices == 1


def test_complete_k4_planar():
    assert is_planar(make_complete(4)).planar


def test_complete_bipartite_sizes():
    assert make_complete_bipartite(4, 4).num_edges == 16
    k11 = make_complete_bipartite(1, 1)
    assert k11.num_edges == 1 and k11.num_vertices == 2


def test_complete_bipartite_k33_nonplanar():
    assert not is_planar(make_complete_bipartite(3, 3)).planar


def test_complete_tripartite_sizes():
    triangle = make_complete_tripartite(1, 1, 1)
    assert triangle.num_vertices == 3 and triangle.num_edges == 3
    assert make_complete_tripartite(3, 3, 3).num_edges == 27
    assert make_complete_tripartite(2, 3, 4).num_edges == 26


def test_path_cycle_shapes():
    p = make_path(3)
    assert p.num_vertices == 3 and p.num_edges == 2
    c = make_cycle(6)
    assert c.num_vertices == 6 and c.num_edges == 6
    assert _degrees(c) == dict.fromkeys(c.vertices, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_generators_match_label_edge_graphs(n):
    def labels(family, count):
        return [VertexLabel(family, i) for i in range(1, count + 1)]

    ps = labels(Family.PLAIN, n)
    assert make_complete(n) == Graph(ps, [(a, b) for i, a in enumerate(ps) for b in ps[i + 1:]])
    assert make_path(n) == Graph(ps, zip(ps, ps[1:]))
    if n >= 3:
        assert make_cycle(n) == Graph(ps, zip(ps, ps[1:] + ps[:1]))
    us, vs = labels(Family.U, n), labels(Family.V, 7 - n)
    assert make_complete_bipartite(n, 7 - n) == Graph(us + vs, [(u, v) for u in us for v in vs])
    xs, ys, zs = labels(Family.X, n), labels(Family.Y, 7 - n), labels(Family.Z, 1 + n % 3)
    assert make_complete_tripartite(n, 7 - n, 1 + n % 3) == Graph(
        xs + ys + zs,
        [(a, b) for a in xs for b in ys + zs] + [(a, b) for a in ys for b in zs],
    )


def test_generators_reject_bad_sizes():
    with pytest.raises(Exception):
        make_complete(0)
    with pytest.raises(Exception):
        make_cycle(2)


# ============================================================
# Graph structure
# ============================================================


def test_graph_rejects_dangling_edges():
    a = VertexLabel(Family.PLAIN, 1)
    b = VertexLabel(Family.PLAIN, 2)
    with pytest.raises(PreconditionError):
        Graph([a], [(a, b)])


# Vertex and edge order of the graph built in test_vertex_order_contract,
# recorded from the release whose labels sorted through an explicit key.
_CONTRACT_VERTICES = (
    "x_1 x1_1 x2_1 x_10 x1_10 x2_10 y_1 y1_1 y2_1 y_10 y1_10 y2_10 "
    "z_1 z1_1 z2_1 z_10 z1_10 z2_10 u_1 u1_1 u2_1 u_10 u1_10 u2_10 "
    "v_1 v1_1 v2_1 v_10 v1_10 v2_10 p_1 p1_1 p2_1 p_10 p1_10 p2_10 "
    "x1_2.p_1 u_1.u2_1 u_1.v_2 p_2.x_1"
).split()
_CONTRACT_EDGES = (
    "x_1-u_10 x_1-v2_1 x1_1-u_10 x1_1-v2_1 x2_1-z2_10 x2_1-v1_10 x_10-y1_1 "
    "x_10-p1_10 x1_10-p_2.x_1 x2_10-z2_10 x2_10-v1_10 y_1-y1_10 y_1-v_10 "
    "y1_1-z_10 y2_1-y2_10 y2_1-x1_2.p_1 y_10-y1_10 y_10-v_10 y2_10-v_1 "
    "z_1-v1_1 z_1-p2_10 z1_1-z2_1 z1_1-z1_10 z2_1-p_1 z_10-p1_10 z1_10-p_1 "
    "u_1-u2_10 u1_1-v2_10 u1_1-p_10 u2_1-v1_1 u2_1-p2_10 u1_10-u_1.u2_1 "
    "v_1-x1_2.p_1 v2_10-p2_1 p1_1-u_1.v_2 p2_1-p_10"
).split()


def test_vertex_order_contract():
    # family in declaration order, then index, then layer (none < 1 < 2);
    # product-vertex pairs after every label, ordered by left then right
    U, V, X, P = Family.U, Family.V, Family.X, Family.PLAIN
    labels = [VertexLabel(f, i, l) for f in Family for i in (1, 10) for l in (None, 1, 2)]
    pairs = [
        ProductVertex(VertexLabel(U, 1), VertexLabel(V, 2)),
        ProductVertex(VertexLabel(U, 1), VertexLabel(U, 1, 2)),
        ProductVertex(VertexLabel(X, 2, 1), VertexLabel(P, 1)),
        ProductVertex(VertexLabel(P, 2), VertexLabel(X, 1)),
    ]
    order = labels + pairs
    random.Random(2019).shuffle(order)
    edges = [(order[i], order[(i * 7 + 3) % len(order)]) for i in range(len(order))]
    g = Graph(order, edges)
    assert [v.name for v in g.vertices] == _CONTRACT_VERTICES
    assert [f"{a.name}-{b.name}" for a, b in g.edges] == _CONTRACT_EDGES
    flipped = Graph(reversed(order), [(b, a) for a, b in reversed(edges)])
    assert (flipped.vertices, flipped.edges) == (g.vertices, g.edges)
    assert list(g.pairs) == sorted(g.pairs) and all(i < j for i, j in g.pairs)


def test_layerless_label_differs_from_layered():
    assert VertexLabel(Family.U, 1) != VertexLabel(Family.U, 1, 1)
    assert VertexLabel(Family.U, 1).layer == 0
    assert VertexLabel(Family.U, 1) == VertexLabel(Family.U, 1, None)


@pytest.mark.parametrize(
    "args",
    [("u", 1), (3, 1), (Family.U, 0), (Family.U, -2), (Family.U, 1, 0),
     (Family.U, 1, 3), (Family.U, 1, -1)],
)
def test_label_constructor_rejects_bad_fields(args):
    with pytest.raises(PreconditionError):
        VertexLabel(*args)


def test_labels_survive_pickling():
    a = VertexLabel(Family.X, 3, 2)
    b = VertexLabel(Family.U, 4)
    pv = ProductVertex(a, b)
    assert pickle.loads(pickle.dumps((a, b, pv))) == (a, b, pv)


def test_graph_equality_is_by_content():
    g1 = make_complete(4)
    g2 = Graph(g1.vertices, [tuple(e) for e in reversed(g1.edges)])
    assert g1 == g2
    assert hash(g1) == hash(g2)


def test_vertex_and_edge_order_deterministic():
    g = make_complete_bipartite(3, 4)
    again = Graph(list(reversed(g.vertices)), list(reversed(g.edges)))
    assert g.vertices == again.vertices
    assert g.edges == again.edges
    assert g.edges == tuple(sorted(g.edges))


# ============================================================
# Union and removal through the constructor, induced subgraphs
# ============================================================


def test_union_identity_and_idempotence():
    a = make_complete(4)
    assert Graph(a.vertices, a.edges + ()) == a
    assert Graph(a.vertices + a.vertices, a.edges + a.edges) == a


def test_union_is_commutative():
    a = make_path(4)
    b = make_cycle(5)
    assert Graph(a.vertices + b.vertices, a.edges + b.edges) == Graph(
        b.vertices + a.vertices, b.edges + a.edges
    )


def test_crown_graph_from_k44():
    k44 = make_complete_bipartite(4, 4)
    left = sorted(v for v in k44.vertices if v.family == Family.U)
    right = sorted(v for v in k44.vertices if v.family == Family.V)
    matching = list(zip(left, right))
    crown = Graph(k44.vertices, [e for e in k44.edges if e not in matching])
    assert crown.num_edges == 12
    assert _degrees(crown) == dict.fromkeys(crown.vertices, 3)
    assert is_planar(crown).planar


def test_induced_subgraph():
    g = make_complete(6)
    keep = set(g.vertices[:4])
    sub = induced_subgraph(g, keep.__contains__)
    assert sub == make_complete(4)


# ============================================================
# Predicates and decompositions of the vertex set
# ============================================================


def test_triangle_free_predicate():
    assert is_triangle_free(make_complete_bipartite(3, 5))
    assert not is_triangle_free(make_complete(3))
    assert is_triangle_free(kronecker_product(make_complete(5), make_complete(2)))


# Component and bipartite structure is checked with networkx as the
# reference.


def test_components_connected_graph():
    nx, h = _nx_graph(make_cycle(7))
    assert nx.is_connected(h)


def test_components_k2_times_k2():
    nx, h = _nx_graph(times_k2(make_complete(2)))
    comps = list(nx.connected_components(h))
    assert len(comps) == 2
    assert all(h.subgraph(c).number_of_edges() == 1 for c in comps)


def test_components_of_bipartite_product():
    prod = kronecker_product(
        make_complete_bipartite(2, 3), make_complete_bipartite(1, 2)
    )
    nx, h = _nx_graph(prod)
    assert nx.number_connected_components(h) == 2


def test_bipartition():
    nx, h = _nx_graph(make_complete_bipartite(2, 5))
    assert sorted(map(len, nx.bipartite.sets(h))) == [2, 5]
    assert not nx.is_bipartite(_nx_graph(make_complete(3))[1])


def test_identify_complete_bipartite():
    # each half of K_{2,3} x K_{1,2} is connected, bipartite and complete
    found = []
    for c in bipartite_factor_split(2, 3, 1, 2):
        nx, h = _nx_graph(c)
        assert nx.is_connected(h)
        a, b = nx.bipartite.sets(h)
        assert c.num_edges == len(a) * len(b)
        found.append(tuple(sorted((len(a), len(b)))))
    assert sorted(found) == [(2, 6), (3, 4)]


# ============================================================
# Properties
# ============================================================


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    verts = [VertexLabel(Family.PLAIN, i) for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(verts, picked)


@given(small_graphs(), small_graphs())
def test_union_covers_both(a: Graph, b: Graph):
    u = Graph(a.vertices + b.vertices, a.edges + b.edges)
    assert set(u.vertices) == set(a.vertices) | set(b.vertices)
    assert set(u.edges) == set(a.edges) | set(b.edges)


@given(small_graphs())
def test_components_partition_vertices(g: Graph):
    # the graphs induced on networkx's components split g's vertices and edges
    nx, h = _nx_graph(g)
    comps = [induced_subgraph(g, c.__contains__) for c in nx.connected_components(h)]
    assert sorted(v for c in comps for v in c.vertices) == list(g.vertices)
    assert sorted(e for c in comps for e in c.edges) == list(g.edges)


@given(small_graphs())
def test_remove_then_union_roundtrip(g: Graph):
    half = g.edges[: g.num_edges // 2]
    rest = Graph(g.vertices, [e for e in g.edges if e not in half])
    assert rest.num_edges == g.num_edges - len(half)
    assert Graph(rest.vertices, rest.edges + half) == g
