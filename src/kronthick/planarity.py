"""Exact planarity testing with a self-certifying embedding.

The decision procedure is the left-right criterion: one DFS orients the graph
and computes lowpoints and a nesting order, a second DFS maintains a stack of
conflict pairs of return-edge intervals and rejects exactly the non-planar
inputs, and a final pass resolves the side of every edge into a rotation
system (clockwise neighbor order per vertex).  All three passes are iterative,
so deep graphs cannot overflow the interpreter stack.

Every planar verdict is checked on the core's integer ids before it is mapped
back to labels: each vertex's rotation must list exactly its input neighbors,
once each, which ties the certificate to the input edge set, and the faces
traced over integer darts must satisfy the Euler relation faces - edges +
vertices = components + components with an edge.  A violation would mean an
implementation bug and raises instead of returning a wrong certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralViolationError
from .graphs import Graph


def euler_max_edges(v: int, triangle_free: bool = False) -> int:
    """Edge-count ceiling for a planar graph on v vertices.

    3v-6 in general, 2v-4 for triangle-free graphs; below 3 vertices the
    complete count v(v-1)/2 is returned so the formula stays total.
    """
    if v < 3:
        return v * (v - 1) // 2
    return 2 * v - 4 if triangle_free else 3 * v - 6


@dataclass(frozen=True)
class Embedding:
    """Combinatorial embedding: clockwise neighbor order around each vertex."""

    rotation: dict


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    certificate: Embedding | None = None


# ============================================================
# Left-right criterion core (integer vertices)
# ============================================================


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self):
        return self.low is None and self.high is None


class _ConflictPair:
    __slots__ = ("L", "R")

    def __init__(self, L=None, R=None):
        self.L = L if L is not None else _Interval()
        self.R = R if R is not None else _Interval()

    def swap(self):
        self.L, self.R = self.R, self.L


def _lr_core(n: int, adj: list[list[int]], want_embedding: bool):
    """Run the left-right test on vertices 0..n-1.

    Returns (True, rotation) when planar (rotation is None unless
    want_embedding), else (False, None).
    """
    if n >= 3 and sum(map(len, adj)) > 2 * (3 * n - 6):  # Euler edge prefilter
        return False, None
    height: list = [None] * n
    parent_edge: list = [None] * n
    lowpt: dict = {}
    lowpt2: dict = {}
    nesting: dict = {}
    adj_out: list[list] = [[] for _ in range(n)]
    oriented: set = set()
    roots: list[int] = []

    def finish_edge(ei):
        # nesting depth and lowpoint propagation once ei's subtree is done
        v = ei[0]
        nesting[ei] = 2 * lowpt[ei] + (1 if lowpt2[ei] < height[v] else 0)
        pe = parent_edge[v]
        if pe is not None:
            if lowpt[ei] < lowpt[pe]:
                lowpt2[pe] = min(lowpt[pe], lowpt2[ei])
                lowpt[pe] = lowpt[ei]
            elif lowpt[ei] > lowpt[pe]:
                lowpt2[pe] = min(lowpt2[pe], lowpt[ei])
            else:
                lowpt2[pe] = min(lowpt2[pe], lowpt2[ei])

    # ---- phase 1: orientation ----
    ptr = [0] * n
    for s in range(n):
        if height[s] is not None:
            continue
        height[s] = 0
        roots.append(s)
        stack = [s]
        while stack:
            v = stack[-1]
            advanced = False
            while ptr[v] < len(adj[v]):
                w = adj[v][ptr[v]]
                ptr[v] += 1
                if (v, w) in oriented or (w, v) in oriented:
                    continue
                ei = (v, w)
                oriented.add(ei)
                adj_out[v].append(ei)
                lowpt[ei] = height[v]
                lowpt2[ei] = height[v]
                if height[w] is None:  # tree edge
                    parent_edge[w] = ei
                    height[w] = height[v] + 1
                    stack.append(w)
                    advanced = True
                    break
                # back edge
                lowpt[ei] = height[w]
                finish_edge(ei)
            if not advanced:
                stack.pop()
                pe = parent_edge[v]
                if pe is not None:
                    finish_edge(pe)

    ordered: list[list] = [
        sorted(adj_out[v], key=lambda e: nesting[e]) for v in range(n)
    ]

    # ---- phase 2: testing ----
    S: list[_ConflictPair] = []
    stack_bottom: dict = {}
    lowpt_edge: dict = {}
    ref: dict = {}
    side: dict = {e: 1 for e in oriented}

    def top_of_stack():
        return S[-1] if S else None

    def conflicting(interval, b):
        return not interval.empty() and lowpt[interval.high] > lowpt[b]

    def lowest(pair):
        if pair.L.empty():
            return lowpt[pair.R.low]
        if pair.R.empty():
            return lowpt[pair.L.low]
        return min(lowpt[pair.L.low], lowpt[pair.R.low])

    def add_constraints(ei, e) -> bool:
        P = _ConflictPair()
        # merge return edges of ei into P.R
        while True:
            Q = S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                return False
            if lowpt[Q.R.low] > lowpt[e]:
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:
                # align with the lowest return edge of e
                ref[Q.R.low] = lowpt_edge[e]
            if top_of_stack() is stack_bottom[ei]:
                break
        # merge return edges of earlier siblings that conflict with ei into P.L
        while conflicting(top_of_stack().L, ei) or conflicting(top_of_stack().R, ei):
            Q = S.pop()
            if conflicting(Q.R, ei):
                Q.swap()
            if conflicting(Q.R, ei):
                return False
            if P.R.low is not None:
                ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            S.append(P)
        return True

    def trim_back_edges(u):
        hu = height[u]
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P.L.low is not None:
                side[P.L.low] = -1
        if S:
            P = S.pop()
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = ref.get(P.L.high)
            if P.L.high is None and P.L.low is not None:
                ref[P.L.low] = P.R.low
                side[P.L.low] = -1
                P.L.low = None
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = ref.get(P.R.high)
            if P.R.high is None and P.R.low is not None:
                ref[P.R.low] = P.L.low
                side[P.R.low] = -1
                P.R.low = None
            S.append(P)

    for s in roots:
        # frames: [vertex, next edge position, edge awaiting integration]
        frames: list[list] = [[s, 0, None]]
        while frames:
            frame = frames[-1]
            v = frame[0]
            if frame[2] is not None:
                ei = frame[2]
                frame[2] = None
                e = parent_edge[v]
                if lowpt[ei] < height[v]:  # ei has a return edge below v
                    if ei is ordered[v][0]:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return False, None
            if frame[1] < len(ordered[v]):
                ei = ordered[v][frame[1]]
                frame[1] += 1
                w = ei[1]
                stack_bottom[ei] = top_of_stack()
                if ei is parent_edge[w]:  # tree edge: descend, integrate later
                    frame[2] = ei
                    frames.append([w, 0, None])
                    continue
                # back edge
                lowpt_edge[ei] = ei
                S.append(_ConflictPair(R=_Interval(ei, ei)))
                e = parent_edge[v]
                if lowpt[ei] < height[v]:
                    if ei is ordered[v][0]:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return False, None
                continue
            # all outgoing edges of v done
            frames.pop()
            e = parent_edge[v]
            if e is not None:
                u = e[0]
                trim_back_edges(u)
                if lowpt[e] < height[u]:  # e has a return edge
                    hl = S[-1].L.high
                    hr = S[-1].R.high
                    if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                        ref[e] = hl
                    else:
                        ref[e] = hr

    if not want_embedding:
        return True, None

    # ---- phase 3: embedding ----
    def resolved_side(e):
        # follow the reference chain, then fold the accumulated flips back
        chain = []
        cur = e
        while ref.get(cur) is not None:
            chain.append(cur)
            cur = ref[cur]
        acc = side[cur]
        for x in reversed(chain):
            acc = side[x] * acc
            side[x] = acc
            ref[x] = None
        return acc

    for e in oriented:
        nesting[e] = resolved_side(e) * nesting[e]

    order: list[list[int]] = [[] for _ in range(n)]
    ordered = [sorted(adj_out[v], key=lambda e: nesting[e]) for v in range(n)]
    for v in range(n):
        order[v] = [e[1] for e in ordered[v]]

    left_ref: list = [None] * n
    right_ref: list = [None] * n
    for s in roots:
        frames = [[s, 0]]
        while frames:
            frame = frames[-1]
            v = frame[0]
            if frame[1] < len(ordered[v]):
                ei = ordered[v][frame[1]]
                frame[1] += 1
                w = ei[1]
                if ei is parent_edge[w]:  # tree edge
                    order[w].insert(0, v)
                    left_ref[v] = w
                    right_ref[v] = w
                    frames.append([w, 0])
                else:  # back edge: hook v into the rotation at w
                    if side[ei] == 1:
                        pos = order[w].index(right_ref[w])
                        order[w].insert(pos + 1, v)
                    else:
                        pos = order[w].index(left_ref[w])
                        order[w].insert(pos, v)
                        left_ref[w] = v
            else:
                frames.pop()

    return True, order


def _is_plane_rotation(adj: list[list[int]], order) -> bool:
    """Check a rotation system against the simple graph it claims to embed.

    Each vertex must list exactly its neighbors in adj, once each; then the
    face orbits, traced over integer darts, must satisfy Euler's relation
    faces - edges + vertices = components + components with an edge.
    Components are counted here from adj, not taken from the LR core.
    """
    n = len(adj)
    if len(order) != n:
        return False
    pos: list[dict] = []
    for v in range(n):
        at = {w: i for i, w in enumerate(order[v])}
        if len(at) != len(order[v]) or at.keys() != set(adj[v]):
            return False
        pos.append(at)

    # dart v->order[v][i] is followed around its face by the dart leaving
    # order[v][i] just after v in its rotation
    faces = 0
    seen = [bytearray(len(at)) for at in pos]
    for v in range(n):
        for i in range(len(pos[v])):
            if seen[v][i]:
                continue
            faces += 1
            a, j = v, i
            while not seen[a][j]:
                seen[a][j] = 1
                b = order[a][j]
                j = pos[b][a] + 1
                if j == len(order[b]):
                    j = 0
                a = b

    components = 0  # counting those with an edge twice
    reached = bytearray(n)
    for s in range(n):
        if not reached[s]:
            components += 1 + bool(adj[s])
            reached[s] = 1
            stack = [s]
            while stack:
                for w in adj[stack.pop()]:
                    if not reached[w]:
                        reached[w] = 1
                        stack.append(w)
    return faces - sum(map(len, adj)) // 2 + n == components


# ============================================================
# Public entry point
# ============================================================


def is_planar(g: Graph) -> PlanarityVerdict:
    """Exact planarity decision; planar verdicts carry a checked embedding."""
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.adjacency[v]] for v in verts]
    ok, order = _lr_core(len(verts), adj, want_embedding=True)
    if not ok:
        return PlanarityVerdict(planar=False)
    if not _is_plane_rotation(adj, order):
        raise StructuralViolationError(
            "embedding failed the edge-set or Euler face check; planarity core is buggy"
        )
    rotation = {v: tuple(verts[j] for j in ns) for v, ns in zip(verts, order)}
    return PlanarityVerdict(planar=True, certificate=Embedding(rotation))


def is_planar_edge_list(n: int, edges: list[tuple[int, int]]) -> bool:
    """Fast boolean planarity for integer edge lists (no certificate).

    Meant for inner search loops; vertices are 0..n-1, isolated ones allowed.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    ok, _ = _lr_core(n, adj, want_embedding=False)
    return ok
