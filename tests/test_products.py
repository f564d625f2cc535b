from __future__ import annotations

from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kronthick.errors import PreconditionError
from kronthick.graphs import (
    Family,
    Graph,
    ProductVertex,
    VertexLabel,
    induced_subgraph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
)
from kronthick.planarity import is_planar
from kronthick.products import bipartite_factor_split, kronecker_product, times_k2


# Component and complete-bipartite structure is checked with networkx as the
# reference.


def _nx_graph(g: Graph):
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges)
    h.add_nodes_from(g.vertices)
    return nx, h


def _components(g: Graph) -> list[Graph]:
    """The graphs induced on networkx's connected components of g."""
    nx, h = _nx_graph(g)
    return [induced_subgraph(g, c.__contains__) for c in nx.connected_components(h)]


def _bipartite_sides(g: Graph) -> tuple[int, int]:
    """Sorted side sizes of g, which must be connected complete bipartite."""
    nx, h = _nx_graph(g)
    assert nx.is_connected(h)
    a, b = nx.bipartite.sets(h)
    assert g.num_edges == len(a) * len(b)
    return tuple(sorted((len(a), len(b))))


# ============================================================
# Kronecker product
# ============================================================


def test_k5_times_k2_shape():
    prod = kronecker_product(make_complete(5), make_complete(2))
    assert prod.num_vertices == 10
    assert prod.num_edges == 20
    nx, h = _nx_graph(prod)
    assert nx.is_bipartite(h)
    # edges are exactly layer-1 to layer-2 pairs with distinct indices
    for a, b in prod.edges:
        assert {a.layer, b.layer} == {1, 2}
        assert a.index != b.index


def test_k2_times_k2_is_two_disjoint_edges():
    prod = kronecker_product(make_complete(2), make_complete(2))
    comps = _components(prod)
    assert len(comps) == 2
    assert all(c.num_edges == 1 for c in comps)


def test_product_with_edgeless_factor():
    g = make_complete(3)
    h = Graph([VertexLabel(Family.PLAIN, i) for i in (1, 2, 3, 4)], [])
    prod = kronecker_product(g, h)
    assert prod.num_vertices == 12
    assert prod.num_edges == 0


def test_product_edge_count_formula():
    g = make_cycle(5)
    h = make_complete_bipartite(2, 3)
    prod = kronecker_product(g, h)
    assert prod.num_vertices == g.num_vertices * h.num_vertices
    assert prod.num_edges == 2 * g.num_edges * h.num_edges


@st.composite
def labelled_graphs(draw):
    """Up to five labels of any family and layer, any edge set."""
    fields = st.tuples(st.sampled_from(Family), st.integers(1, 3), st.sampled_from([None, 1, 2]))
    verts = sorted({VertexLabel(*f) for f in draw(st.lists(fields, min_size=1, max_size=5))})
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(verts, picked)


@given(labelled_graphs(), st.one_of(labelled_graphs(), st.just(make_complete(2))))
@example(make_complete(3), make_complete(2))
@example(make_cycle(3), make_complete_bipartite(1, 2))
def test_product_matches_definition(g, h):
    # (a, c) ~ (b, d) iff ab in E(g) and cd in E(h), on label edges;
    # a layerless g times the plain K_2 flattens (a, c) to a with layer c.
    flatten = h == make_complete(2) and not any(v.layer for v in g.vertices)

    def pv(a, c):
        return a.with_layer(c.index) if flatten else ProductVertex(a, c)

    edges = [(pv(a, c), pv(b, d)) for a, b in g.edges for c, d in h.edges]
    edges += [(pv(a, d), pv(b, c)) for a, b in g.edges for c, d in h.edges]
    prod = kronecker_product(g, h)
    assert prod == Graph([pv(a, c) for a in g.vertices for c in h.vertices], edges)
    assert list(prod.vertices) == sorted(prod.vertices)
    assert prod.num_edges == 2 * g.num_edges * h.num_edges


def test_product_rejects_pair_vertex_factors():
    pair = kronecker_product(make_cycle(3), make_complete(3))
    for g, h in ((pair, make_complete(2)), (make_complete(2), pair)):
        with pytest.raises(PreconditionError):
            kronecker_product(g, h)


# ============================================================
# Double cover specialization
# ============================================================


def test_times_k2_of_complete_is_crown():
    n = 6
    prod = times_k2(make_complete(n))
    assert prod.num_vertices == 2 * n
    assert prod.num_edges == n * (n - 1)
    # no matching edge (v,1)-(v,2) survives
    assert all(a.index != b.index for a, b in prod.edges)


def test_times_k2_of_even_cycle_splits():
    comps = _components(times_k2(make_cycle(6)))
    assert len(comps) == 2
    assert all(c.num_vertices == 6 and c.num_edges == 6 for c in comps)


def test_times_k2_of_k2():
    comps = _components(times_k2(make_complete(2)))
    assert len(comps) == 2
    assert all(c.num_edges == 1 for c in comps)


def test_times_k2_agrees_with_generic_product():
    for g in (make_complete(4), make_cycle(5), make_complete_bipartite(2, 3)):
        assert kronecker_product(g, make_complete(2)) == times_k2(g)


def test_times_k2_always_triangle_free():
    from kronthick.graphs import is_triangle_free

    assert is_triangle_free(times_k2(make_complete(7)))


# ============================================================
# Bipartite factor split
# ============================================================


def test_split_unit_case():
    a, b = bipartite_factor_split(1, 1, 1, 1)
    assert _bipartite_sides(a) == (1, 1)
    assert _bipartite_sides(b) == (1, 1)


def test_split_k2_factor_gives_two_copies():
    a, b = bipartite_factor_split(3, 4, 1, 1)
    assert _bipartite_sides(a) == (3, 4)
    assert _bipartite_sides(b) == (3, 4)


def test_split_2312():
    a, b = bipartite_factor_split(2, 3, 1, 2)
    sides = sorted(_bipartite_sides(c) for c in (a, b))
    assert sides == [(2, 6), (3, 4)]


def test_split_components_match_brute_product():
    m, n, p, q = 2, 3, 2, 2
    split = bipartite_factor_split(m, n, p, q)
    prod = kronecker_product(
        make_complete_bipartite(m, n), make_complete_bipartite(p, q)
    )
    assert sum(g.num_edges for g in split) == prod.num_edges
    assert sum(g.num_vertices for g in split) == prod.num_vertices
    got = sorted(_bipartite_sides(c) for c in split)
    want = sorted(_bipartite_sides(c) for c in _components(prod))
    assert got == want


def test_split_equals_induced_networkx_components():
    anchor = ProductVertex(VertexLabel(Family.U, 1), VertexLabel(Family.U, 1))
    for m, n, p, q in product(range(1, 5), repeat=4):
        prod = kronecker_product(
            make_complete_bipartite(m, n), make_complete_bipartite(p, q)
        )
        want = sorted(_components(prod), key=lambda c: anchor not in c.vertices)
        assert bipartite_factor_split(m, n, p, q) == tuple(want), (m, n, p, q)


def test_split_rejects_bad_sizes():
    with pytest.raises(Exception):
        bipartite_factor_split(0, 1, 1, 1)


# ============================================================
# Properties
# ============================================================


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_split_sides_formula(m, n, p, q):
    a, b = bipartite_factor_split(m, n, p, q)
    got = sorted(_bipartite_sides(c) for c in (a, b))
    want = sorted([tuple(sorted((m * p, n * q))), tuple(sorted((m * q, n * p)))])
    assert got == want


@given(st.integers(min_value=2, max_value=7))
def test_product_symmetric_in_edge_count(n):
    g = make_complete(n)
    h = make_cycle(4)
    assert (
        kronecker_product(g, h).num_edges == kronecker_product(h, g).num_edges
    )


@given(st.integers(min_value=3, max_value=8))
def test_double_cover_of_planar_cycle_planar(n):
    assert is_planar(times_k2(make_cycle(n))).planar
