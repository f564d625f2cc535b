"""Immutable labeled simple graphs and the generators/operations built on them.

Vertices are symbolic labels: a family, a positive index, and a layer in
{1, 2}, or 0 for a layerless label.  A label is a plain tuple
(family, index, layer) and Family is an IntEnum, so a label is its own sort
key: x_1 < x1_1 < x2_1 < x_2 < ... < y_1 < ... < p2_n.  Product-vertex pairs
sort after every label.  Graphs are values; every operation returns a new
graph and never mutates its inputs, so graph objects can be shared freely.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import NamedTuple

from .errors import (
    InvalidSizeError,
    MissingEdgeError,
    PreconditionError,
)


class Family(enum.IntEnum):
    """Label families. X/Y/Z are tripartite parts, U/V bipartite parts.

    The declaration order is the vertex order.
    """

    X = 0
    Y = 1
    Z = 2
    U = 3
    V = 4
    PLAIN = 5

    @property
    def letter(self) -> str:
        """The printable letter used in vertex names."""
        return "xyzuvp"[self]


class _LabelFields(NamedTuple):
    family: Family
    index: int
    layer: int  # 1 or 2; 0 for a layerless label


class VertexLabel(_LabelFields):
    """A symbolic vertex: family letter, subscript index, optional layer."""

    __slots__ = ()

    def __new__(cls, family: Family, index: int, layer: int | None = None):
        if not isinstance(family, Family):
            raise PreconditionError(f"family must be a Family, got {family!r}")
        if index < 1:
            raise PreconditionError(f"vertex index must be >= 1, got {index}")
        if layer not in (None, 1, 2):
            raise PreconditionError(f"layer must be 1, 2 or None, got {layer}")
        return tuple.__new__(cls, (family, index, layer or 0))

    def __getnewargs__(self):
        return (self.family, self.index, self.layer or None)

    @property
    def name(self) -> str:
        """Short printable name, e.g. x1_3 for x^1_3, u_4 for a layerless u_4."""
        return f"{self.family.letter}{self.layer or ''}_{self.index}"

    def with_layer(self, layer: int | None) -> VertexLabel:
        return VertexLabel(self.family, self.index, layer)

    def __repr__(self) -> str:
        return f"V({self.name})"


# Leads every ProductVertex; above every Family, so pairs sort after labels.
_PAIR_RANK = len(Family)


class _PairFields(NamedTuple):
    rank: int
    left: VertexLabel
    right: VertexLabel


class ProductVertex(_PairFields):
    """A vertex of a general Kronecker product: an ordered label pair."""

    __slots__ = ()

    def __new__(cls, left: VertexLabel, right: VertexLabel):
        return tuple.__new__(cls, (_PAIR_RANK, left, right))

    def __getnewargs__(self):
        return (self.left, self.right)

    @property
    def name(self) -> str:
        return f"{self.left.name}.{self.right.name}"

    def __repr__(self) -> str:
        return f"PV({self.name})"


# Any vertex value usable in a Graph.
Vertex = VertexLabel | ProductVertex
Edge = tuple  # canonical unordered pair, endpoints in vertex order


def edge(a: Vertex, b: Vertex) -> Edge:
    """Canonical unordered edge: endpoints sorted, self-loops rejected."""
    if a == b:
        raise PreconditionError(f"self-loop at {a!r}")
    return (a, b) if a < b else (b, a)


class Graph:
    """Immutable simple graph on symbolic vertex labels.

    Vertex and edge iteration order is deterministic (sorted by label), so
    anything derived from a graph is reproducible across runs.
    """

    __slots__ = ("_vertices", "_edges", "_vertex_set", "_edge_set", "_adj")

    def __init__(self, vertices, edges=()):
        vset = frozenset(vertices)
        eset = frozenset(edge(a, b) for a, b in edges)
        for a, b in eset:
            if a not in vset or b not in vset:
                raise PreconditionError(f"edge endpoint not in vertex set: {a!r}-{b!r}")
        self._vertices: tuple = tuple(sorted(vset))
        self._edges: tuple = tuple(sorted(eset))
        self._vertex_set = vset
        self._edge_set = eset
        self._adj: dict | None = None

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def vertex_set(self) -> frozenset:
        return self._vertex_set

    @property
    def edge_set(self) -> frozenset:
        return self._edge_set

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def adjacency(self) -> dict:
        """vertex -> tuple of neighbors, sorted; built once, then cached."""
        if self._adj is None:
            nbrs: dict = {v: [] for v in self._vertices}
            for a, b in self._edges:
                nbrs[a].append(b)
                nbrs[b].append(a)
            self._adj = {v: tuple(sorted(ns)) for v, ns in nbrs.items()}
        return self._adj

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertex_set == other._vertex_set and self._edge_set == other._edge_set

    def __hash__(self) -> int:
        return hash((self._vertex_set, self._edge_set))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


# ============================================================
# Generators
# ============================================================


def _range_labels(family: Family, count: int, layer: int | None = None) -> list[VertexLabel]:
    if count < 1:
        raise InvalidSizeError(f"part size must be >= 1, got {count}")
    return [VertexLabel(family, i, layer) for i in range(1, count + 1)]


def make_complete(n: int) -> Graph:
    """Complete graph K_n on Plain-family vertices 1..n."""
    vs = _range_labels(Family.PLAIN, n)
    return Graph(vs, ((vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)))


def make_complete_bipartite(m: int, n: int) -> Graph:
    """Complete bipartite K_{m,n}; part U has size m, part V size n."""
    us = _range_labels(Family.U, m)
    vs = _range_labels(Family.V, n)
    return Graph(us + vs, ((u, v) for u in us for v in vs))


def make_complete_tripartite(l: int, m: int, n: int) -> Graph:
    """Complete tripartite K_{l,m,n}; parts X (size l), Y (size m), Z (size n)."""
    xs = _range_labels(Family.X, l)
    ys = _range_labels(Family.Y, m)
    zs = _range_labels(Family.Z, n)
    edges = [(a, b) for a in xs for b in ys]
    edges += [(a, b) for a in xs for b in zs]
    edges += [(a, b) for a in ys for b in zs]
    return Graph(xs + ys + zs, edges)


def make_path(n: int) -> Graph:
    """Path on n Plain-family vertices (n-1 edges)."""
    vs = _range_labels(Family.PLAIN, n)
    return Graph(vs, ((vs[i], vs[i + 1]) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    """Cycle on n Plain-family vertices; n >= 3."""
    if n < 3:
        raise InvalidSizeError(f"cycle needs >= 3 vertices, got {n}")
    vs = _range_labels(Family.PLAIN, n)
    return Graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


# ============================================================
# Operations
# ============================================================


def graph_union(a: Graph, b: Graph) -> Graph:
    """Union of vertex sets and edge sets; equal labels denote equal vertices."""
    return Graph(a.vertex_set | b.vertex_set, a.edge_set | b.edge_set)


def remove_edges(g: Graph, edges) -> Graph:
    """Drop the given edges; every one of them must be present in g."""
    doomed = {edge(a, b) for a, b in edges}
    missing = doomed - g.edge_set
    if missing:
        sample = min(missing)
        raise MissingEdgeError(f"edge not in graph: {sample[0].name}-{sample[1].name}")
    return Graph(g.vertex_set, g.edge_set - doomed)


def induced_subgraph(g: Graph, keep) -> Graph:
    """Subgraph induced by the vertices v for which keep(v) is true."""
    vs = [v for v in g.vertices if keep(v)]
    vset = frozenset(vs)
    return Graph(vs, ((a, b) for a, b in g.edges if a in vset and b in vset))


def is_triangle_free(g: Graph) -> bool:
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    for a, b in g.edges:
        if adj[a] & adj[b]:
            return False
    return True


def components(g: Graph) -> list[Graph]:
    """Maximal connected subgraphs, ordered by their smallest vertex label."""
    seen: set = set()
    out: list[Graph] = []
    adj = g.adjacency
    for start in g.vertices:  # sorted, so components come out ordered
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(induced_subgraph(g, comp.__contains__))
    return out


def bipartition(g: Graph) -> tuple[frozenset, frozenset] | None:
    """2-coloring of g if one exists, else None; sides may be empty."""
    color: dict = {}
    adj = g.adjacency
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = frozenset(v for v, c in color.items() if c == 0)
    return (side0, g.vertex_set - side0)


def identify_complete_bipartite(g: Graph) -> tuple[int, int] | None:
    """Part sizes (m, n) iff g is a complete bipartite graph, else None.

    The side containing the smallest vertex label is reported first.
    """
    if g.num_vertices == 0 or g.num_edges == 0:
        return None
    if len(components(g)) != 1:
        return None
    parts = bipartition(g)
    if parts is None:
        return None
    a, b = parts
    if g.num_edges != len(a) * len(b):
        return None
    first = g.vertices[0]
    if first in a:
        return (len(a), len(b))
    return (len(b), len(a))
