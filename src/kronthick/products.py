"""Kronecker (tensor/direct) products of labeled graphs.

(a, c) is adjacent to (b, d) in G x H exactly when ab is an edge of G and
cd is an edge of H, so |E(G x H)| = 2 |E(G)| |E(H)|.  When the right factor
is the plain two-vertex complete graph, product vertices (v, k) are flattened
to the label v with layer k; general products keep explicit label pairs.
Either way (g[i], h[k]) sorts to position iH + k, H = |V(h)|, so the
product is built on index pairs alone: g-pair (i, j) and h-pair (k, l) give
(iH + k, jH + l) and (iH + l, jH + k), sorted once.
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


_PLAIN_K2 = (VertexLabel(Family.PLAIN, 1), VertexLabel(Family.PLAIN, 2))


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """Kronecker product of g and h; both factors need a non-empty vertex set.

    Neither factor may have pair vertices: a pair of pairs is not a vertex
    that documents can hold.
    """
    if g.num_vertices == 0 or h.num_vertices == 0:
        raise PreconditionError("kronecker_product needs non-empty vertex sets")
    if not all(isinstance(v, VertexLabel) for v in g.vertices + h.vertices):
        raise PreconditionError("kronecker_product factors cannot have pair vertices")
    flatten = h.vertices == _PLAIN_K2 and h.num_edges == 1
    if flatten and not any(v.layer for v in g.vertices):
        vs = [a.with_layer(c) for a in g.vertices for c in (1, 2)]
    else:
        vs = [ProductVertex(a, c) for a in g.vertices for c in h.vertices]
    # at[i][k] is the position of (g[i], h[k]), one int object per vertex
    # shared by all of its pairs; i < j keeps each pair ordered.
    nh = h.num_vertices
    at = [list(range(i * nh, i * nh + nh)) for i in range(g.num_vertices)]
    pairs = []
    for i, j in g.pairs:
        ai, aj = at[i], at[j]
        for k, l in h.pairs:
            pairs.append((ai[k], aj[l]))
            pairs.append((ai[l], aj[k]))
    pairs.sort()
    return Graph._trusted(tuple(vs), tuple(pairs))


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
