"""Kronecker (tensor/direct) products of labeled graphs.

(a, c) is adjacent to (b, d) in G x H exactly when ab is an edge of G and
cd is an edge of H, so |E(G x H)| = 2 |E(G)| |E(H)|.  When the right factor
is the plain two-vertex complete graph, product vertices (v, k) are flattened
to the label v with layer k; general products keep explicit label pairs.
"""

from __future__ import annotations

from .errors import PreconditionError, StructuralViolationError
from .graphs import (
    Family,
    Graph,
    ProductVertex,
    VertexLabel,
    components,
    identify_complete_bipartite,
    make_complete,
    make_complete_bipartite,
)


def _is_plain_k2(h: Graph) -> bool:
    vs = h.vertices
    return (
        len(vs) == 2
        and h.num_edges == 1
        and all(
            isinstance(v, VertexLabel)
            and v.family is Family.PLAIN
            and not v.layer
            for v in vs
        )
        and {v.index for v in vs} == {1, 2}
    )


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """Kronecker product of g and h; both factors need a non-empty vertex set."""
    if g.num_vertices == 0 or h.num_vertices == 0:
        raise PreconditionError("kronecker_product needs non-empty vertex sets")
    flatten = _is_plain_k2(h) and all(
        isinstance(v, VertexLabel) and not v.layer for v in g.vertices
    )
    if flatten:
        def mk(a, c):
            return a.with_layer(c.index)
    else:
        def mk(a, c):
            return ProductVertex(a, c)
    # One object per product vertex, shared by all of its edges, saves memory.
    pv = {(a, c): mk(a, c) for a in g.vertices for c in h.vertices}
    edges = []
    for a, b in g.edges:
        for c, d in h.edges:
            edges.append((pv[a, c], pv[b, d]))
            edges.append((pv[a, d], pv[b, c]))
    return Graph(pv.values(), edges)


def times_k2(g: Graph) -> Graph:
    """Bipartite double cover: the product of g with a single plain edge."""
    return kronecker_product(g, make_complete(2))


def bipartite_factor_split(m: int, n: int, p: int, q: int) -> tuple[Graph, Graph]:
    """The two complete bipartite components of K_{m,n} x K_{p,q}.

    Returns (K_{mp,nq}, K_{mq,np}); the component containing the product of
    the two first-part vertices comes first.  Sizes are re-derived from the
    components themselves and checked, not assumed.
    """
    g = make_complete_bipartite(m, n)
    h = make_complete_bipartite(p, q)
    prod = kronecker_product(g, h)
    comps = components(prod)
    if len(comps) != 2:
        raise StructuralViolationError(
            f"product of complete bipartite graphs split into {len(comps)} components"
        )
    anchor = ProductVertex(VertexLabel(Family.U, 1), VertexLabel(Family.U, 1))
    if anchor in comps[0].vertex_set:
        first, second = comps
    else:
        second, first = comps
    got = (identify_complete_bipartite(first), identify_complete_bipartite(second))
    if got != ((m * p, n * q), (m * q, n * p)):
        raise StructuralViolationError(
            f"components are not the expected complete bipartite graphs: {got}"
        )
    return first, second
