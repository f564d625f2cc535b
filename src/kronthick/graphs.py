"""Immutable labeled simple graphs and the generators/operations built on them.

Vertices are symbolic labels: a family, a positive index, and a layer in
{1, 2}, or 0 for a layerless label.  A label is a plain tuple
(family, index, layer) and Family is an IntEnum, so a label is its own sort
key: x_1 < x1_1 < x2_1 < x_2 < ... < y_1 < ... < p2_n.  Product-vertex pairs
sort after every label.  Graphs are values; every operation returns a new
graph and never mutates its inputs, so graph objects can be shared freely.

A graph is stored on one integer core: its sorted labels and the sorted
index pairs (i, j), i < j, of its edges.  The planarity test, the verifier,
the oracle, the triangle test and the document reader and writer all work
on the pairs, and the build side hands them over too: the generators here,
the product and the constructions make sorted pairs for Graph._trusted,
while Graph(vertices, edges) is the checked constructor for other callers.
Label edges are built from the pairs on each request, never stored.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import InvalidSizeError, PreconditionError


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


class Graph:
    """Immutable simple graph on symbolic vertex labels.

    vertices is the sorted label tuple and pairs the sorted tuple of index
    pairs (i, j), i < j, one per edge; label edges are derived from them on
    each request.  Pairs and label edges come out in the same order, so
    iteration is deterministic and reproducible across runs.
    """

    __slots__ = ("_vertices", "_pairs")

    def __init__(self, vertices, edges=()):
        vs = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(vs)}
        pairs = set()
        for a, b in edges:
            if a == b:
                raise PreconditionError(f"self-loop at {a!r}")
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise PreconditionError(f"edge endpoint not in vertex set: {a!r}-{b!r}")
            pairs.add((i, j) if i < j else (j, i))
        self._vertices = vs
        self._pairs = tuple(sorted(pairs))

    @classmethod
    def _trusted(cls, vertices: tuple, pairs: tuple) -> Graph:
        """A graph on sorted distinct labels and sorted distinct pairs (i, j), i < j.

        Nothing is checked: the caller guarantees both orders.
        """
        g = object.__new__(cls)
        g._vertices = vertices
        g._pairs = pairs
        return g

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def pairs(self) -> tuple:
        """Sorted index pairs (i, j), i < j, one per edge, indexing vertices."""
        return self._pairs

    @property
    def edges(self) -> tuple:
        """Label edges (a, b), a < b, sorted; built from the pairs on each call."""
        vs = self._vertices
        return tuple([(vs[i], vs[j]) for i, j in self._pairs])

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # equal sorted labels and equal pairs over them: equal sets
        return self._vertices == other._vertices and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((self._vertices, self._pairs))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


# ============================================================
# Generators
# ============================================================


def _range_labels(family: Family, count: int) -> list[VertexLabel]:
    if count < 1:
        raise InvalidSizeError(f"part size must be >= 1, got {count}")
    return [VertexLabel(family, i) for i in range(1, count + 1)]


def _multipartite(parts: list[list[VertexLabel]]) -> Graph:
    """Complete multipartite graph on label lists given in vertex order.

    Each part is a run of positions, so the pairs (a, b), a in one part and
    b in a later one, come out sorted.
    """
    vs = tuple([v for part in parts for v in part])
    ids = list(range(len(vs)))  # one int object per vertex, shared by its pairs
    pairs: list[tuple[int, int]] = []
    end = 0
    for part in parts:
        end += len(part)
        pairs += [(a, b) for a in ids[end - len(part):end] for b in ids[end:]]
    return Graph._trusted(vs, tuple(pairs))


def make_complete(n: int) -> Graph:
    """Complete graph K_n on Plain-family vertices 1..n."""
    return _multipartite([[v] for v in _range_labels(Family.PLAIN, n)])


def make_complete_bipartite(m: int, n: int) -> Graph:
    """Complete bipartite K_{m,n}; part U has size m, part V size n."""
    return _multipartite([_range_labels(Family.U, m), _range_labels(Family.V, n)])


def make_complete_tripartite(l: int, m: int, n: int) -> Graph:
    """Complete tripartite K_{l,m,n}; parts X (size l), Y (size m), Z (size n)."""
    return _multipartite(
        [_range_labels(Family.X, l), _range_labels(Family.Y, m), _range_labels(Family.Z, n)]
    )


def make_path(n: int) -> Graph:
    """Path on n Plain-family vertices (n-1 edges)."""
    vs = _range_labels(Family.PLAIN, n)
    return Graph._trusted(tuple(vs), tuple([(i, i + 1) for i in range(n - 1)]))


def make_cycle(n: int) -> Graph:
    """Cycle on n Plain-family vertices; n >= 3."""
    if n < 3:
        raise InvalidSizeError(f"cycle needs >= 3 vertices, got {n}")
    vs = _range_labels(Family.PLAIN, n)
    pairs = [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)]
    return Graph._trusted(tuple(vs), tuple(pairs))


# ============================================================
# Operations
# ============================================================


def induced_subgraph(g: Graph, keep) -> Graph:
    """Subgraph induced by the vertices v for which keep(v) is true."""
    new = [-1] * g.num_vertices
    vs = []
    for i, v in enumerate(g.vertices):
        if keep(v):
            new[i] = len(vs)
            vs.append(v)
    # the renumbering keeps the order, so the kept pairs stay sorted
    pairs = tuple([(new[a], new[b]) for a, b in g.pairs if new[a] >= 0 and new[b] >= 0])
    return Graph._trusted(tuple(vs), pairs)


def is_triangle_free(g: Graph) -> bool:
    """No edge's ends share a later neighbor; neighbor sets as bitmasks.

    masks[a] holds the neighbors after a, so a triangle a < b < c shows
    as c in both masks[a] and masks[b].
    """
    masks = [0] * g.num_vertices
    for a, b in g.pairs:
        masks[a] |= 1 << b
    return not any(masks[a] & masks[b] for a, b in g.pairs)
