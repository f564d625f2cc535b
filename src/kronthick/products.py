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
    induced_subgraph,
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

    Returns (K_{mp,nq}, K_{mq,np}): the graphs induced on the product
    vertices whose two labels share a family, which hold (u_1, u_1), and on
    those whose labels do not.  Edge counts are checked, not assumed.
    """
    prod = kronecker_product(make_complete_bipartite(m, n), make_complete_bipartite(p, q))
    first = induced_subgraph(prod, lambda v: v.left.family == v.right.family)
    second = induced_subgraph(prod, lambda v: v.left.family != v.right.family)
    got = (first.num_edges, second.num_edges)
    if got != (m * p * n * q, m * q * n * p) or sum(got) != prod.num_edges:
        raise StructuralViolationError(
            f"product of complete bipartite graphs split into {got} of {prod.num_edges} edges"
        )
    return first, second
