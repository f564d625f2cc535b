"""Exact planarity testing with a self-certifying embedding.

The decision procedure is the left-right criterion: one DFS orients the graph
and computes lowpoints and a nesting order, a second DFS maintains a stack of
conflict pairs of return-edge intervals and rejects exactly the non-planar
inputs, and a final pass resolves the side of every edge into a rotation
system (clockwise neighbor order per vertex).  The core works on integer ids
throughout: vertices are 0..n-1, edges are numbered in the order they are
oriented, and every per-vertex or per-edge value is a list entry.  All three
passes are iterative, so deep graphs cannot overflow the interpreter stack.

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
# Left-right criterion core (integer vertices and edges)
# ============================================================


def _lr_core(n: int, adj: list[list[int]], want_embedding: bool):
    """Run the left-right test on the simple graph with vertices 0..n-1.

    Edges are integer ids 0..m-1, numbered in the order the first DFS orients
    them; edge e runs from src[e] to dst[e], and every per-edge value lives in
    a list indexed by e.  -1 stands for "no vertex" or "no edge".

    Returns (True, rotation) when planar (rotation is None unless
    want_embedding), else (False, None).
    """
    if sum(map(len, adj)) > 2 * euler_max_edges(n):  # Euler edge prefilter
        return False, None
    height = [-1] * n
    parent_edge = [-1] * n
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    adj_out: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []

    def finish_edge(ei):
        # nesting depth and lowpoint propagation once ei's subtree is done
        v = src[ei]
        nesting[ei] = 2 * lowpt[ei] + (1 if lowpt2[ei] < height[v] else 0)
        pe = parent_edge[v]
        if pe != -1:
            if lowpt[ei] < lowpt[pe]:
                lowpt2[pe] = min(lowpt[pe], lowpt2[ei])
                lowpt[pe] = lowpt[ei]
            elif lowpt[ei] > lowpt[pe]:
                lowpt2[pe] = min(lowpt2[pe], lowpt[ei])
            else:
                lowpt2[pe] = min(lowpt2[pe], lowpt2[ei])

    # ---- phase 1: orientation ----
    # In a DFS of a simple graph a visited neighbor w of v is the parent, a
    # finished descendant whose edge to v is already oriented, or an ancestor
    # above the parent: only the last one gives a new (back) edge.
    ptr = [0] * n
    for s in range(n):
        if height[s] != -1:
            continue
        height[s] = 0
        roots.append(s)
        stack = [s]
        while stack:
            v = stack[-1]
            hv = height[v]
            while ptr[v] < len(adj[v]):
                w = adj[v][ptr[v]]
                ptr[v] += 1
                hw = height[w]
                if hw != -1 and hw >= hv - 1:
                    continue
                ei = len(src)
                src.append(v)
                dst.append(w)
                adj_out[v].append(ei)
                lowpt2.append(hv)
                nesting.append(0)
                if hw == -1:  # tree edge
                    lowpt.append(hv)
                    parent_edge[w] = ei
                    height[w] = hv + 1
                    stack.append(w)
                    break
                lowpt.append(hw)  # back edge
                finish_edge(ei)
            else:  # no tree edge left to descend: v is done
                stack.pop()
                pe = parent_edge[v]
                if pe != -1:
                    finish_edge(pe)

    m = len(src)
    ordered = [sorted(out, key=nesting.__getitem__) for out in adj_out]

    # ---- phase 2: testing ----
    # A conflict pair is [L.low, L.high, R.low, R.high]; an interval is empty
    # when both its ends are -1.  bottom[e] is len(S) when e is entered.
    S: list[list[int]] = []
    bottom = [0] * m
    lowpt_edge = [-1] * m
    ref = [-1] * m
    side = [1] * m

    def lowest(P):
        if P[0] == -1 and P[1] == -1:
            return lowpt[P[2]]
        if P[2] == -1 and P[3] == -1:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def add_constraints(ei, e) -> bool:
        P = [-1, -1, -1, -1]
        # merge return edges of ei into P.R
        while True:
            Q = S.pop()
            if Q[0] != -1 or Q[1] != -1:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] != -1 or Q[1] != -1:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] == -1 and P[3] == -1:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                # align with the lowest return edge of e
                ref[Q[2]] = lowpt_edge[e]
            if len(S) == bottom[ei]:
                break
        # merge return edges of earlier siblings that conflict with ei into P.L;
        # an interval conflicts with ei when its high end returns above lowpt[ei]
        lo = lowpt[ei]
        while (
            S[-1][1] != -1 and lowpt[S[-1][1]] > lo
            or S[-1][3] != -1 and lowpt[S[-1][3]] > lo
        ):
            Q = S.pop()
            if Q[3] != -1 and lowpt[Q[3]] > lo:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[3] != -1 and lowpt[Q[3]] > lo:
                return False
            if P[2] != -1:
                ref[P[2]] = Q[3]
            if Q[2] != -1:
                P[2] = Q[2]
            if P[0] == -1 and P[1] == -1:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [-1, -1, -1, -1]:
            S.append(P)
        return True

    def integrate(ei, v) -> bool:
        # fold the finished edge ei into the edge entering its source v
        if lowpt[ei] >= height[v]:  # no return edge below v
            return True
        e = parent_edge[v]
        if ei == ordered[v][0]:
            lowpt_edge[e] = lowpt_edge[ei]
            return True
        return add_constraints(ei, e)

    def trim_back_edges(u):
        hu = height[u]
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] != -1:
                side[P[0]] = -1
        if S:
            P = S[-1]
            while P[1] != -1 and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] == -1 and P[0] != -1:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            while P[3] != -1 and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] == -1 and P[2] != -1:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1

    ptr = [0] * n
    for s in roots:
        stack = [s]
        while stack:
            v = stack[-1]
            if ptr[v] < len(ordered[v]):
                ei = ordered[v][ptr[v]]
                ptr[v] += 1
                w = dst[ei]
                bottom[ei] = len(S)
                if ei == parent_edge[w]:  # tree edge: integrated once w is done
                    stack.append(w)
                else:  # back edge
                    lowpt_edge[ei] = ei
                    S.append([-1, -1, ei, ei])
                    if not integrate(ei, v):
                        return False, None
                continue
            # all outgoing edges of v done: fold the tree edge into v's parent
            stack.pop()
            e = parent_edge[v]
            if e != -1:
                u = src[e]
                trim_back_edges(u)
                if lowpt[e] < height[u]:  # e has a return edge
                    hl, hr = S[-1][1], S[-1][3]
                    if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                        ref[e] = hl
                    else:
                        ref[e] = hr
                if not integrate(e, u):
                    return False, None

    if not want_embedding:
        return True, None

    # ---- phase 3: embedding ----
    for e in range(m):
        # follow the reference chain, then fold the accumulated flips back
        chain = []
        cur = e
        while ref[cur] != -1:
            chain.append(cur)
            cur = ref[cur]
        acc = side[cur]
        for x in reversed(chain):
            acc = side[x] * acc
            side[x] = acc
            ref[x] = -1
        nesting[e] *= acc

    ordered = [sorted(out, key=nesting.__getitem__) for out in adj_out]
    order = [[dst[e] for e in out] for out in ordered]

    left_ref = [-1] * n
    right_ref = [-1] * n
    ptr = [0] * n
    for s in roots:
        stack = [s]
        while stack:
            v = stack[-1]
            if ptr[v] == len(ordered[v]):
                stack.pop()
                continue
            ei = ordered[v][ptr[v]]
            ptr[v] += 1
            w = dst[ei]
            if ei == parent_edge[w]:  # tree edge
                order[w].insert(0, v)
                left_ref[v] = w
                right_ref[v] = w
                stack.append(w)
            elif side[ei] == 1:  # back edge: hook v into the rotation at w
                order[w].insert(order[w].index(right_ref[w]) + 1, v)
            else:
                order[w].insert(order[w].index(left_ref[w]), v)
                left_ref[w] = v

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


def _neighbor_lists(n: int, pairs) -> list[list[int]]:
    """Neighbor lists of vertices 0..n-1; ascending when pairs are sorted."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    return adj


# ============================================================
# Public entry point
# ============================================================


def is_planar(g: Graph) -> PlanarityVerdict:
    """Exact planarity decision; planar verdicts carry a checked embedding."""
    verts = g.vertices
    adj = _neighbor_lists(len(verts), g.pairs)  # sorted pairs: ascending neighbors
    ok, order = _lr_core(len(verts), adj, want_embedding=True)
    if not ok:
        return PlanarityVerdict(planar=False)
    if not _is_plane_rotation(adj, order):
        raise StructuralViolationError(
            "embedding failed the edge-set or Euler face check; planarity core is buggy"
        )
    rotation = {v: tuple(map(verts.__getitem__, ns)) for v, ns in zip(verts, order)}
    return PlanarityVerdict(planar=True, certificate=Embedding(rotation))


def is_planar_edge_list(n: int, edges: list[tuple[int, int]]) -> bool:
    """Fast boolean planarity for integer edge lists (no certificate).

    Meant for inner search loops; vertices are 0..n-1, isolated ones allowed.
    The graph must be simple: no loops and no edge listed twice (in either
    direction).  Such inputs are not rejected, and the verdict on them is
    meaningless.
    """
    ok, _ = _lr_core(n, _neighbor_lists(n, edges), want_embedding=False)
    return ok
