"""Exact planarity testing with a self-certifying embedding.

The decision procedure is the left-right criterion: one DFS orients the graph
and computes lowpoints and a nesting order, a second DFS maintains a stack of
conflict pairs of return-edge intervals and rejects exactly the non-planar
inputs, and a final pass resolves the side of every edge into a rotation
system (clockwise neighbor order per vertex).

The core is one flat kernel on integer ids.  Vertices are 0..n-1; edges are
0..m-1, numbered in DFS order, i.e. the order the first DFS orients them; every
per-vertex or per-edge value is an entry of a list allocated up front.  Each
DFS walks a per-vertex neighbor iterator, and finishing an edge, integrating it
into the edge below it and trimming the back edges that end at a vertex are
written into the loops, not called; the one helper merges conflict pairs.  A
conflict pair is four ints (L.low, L.high, R.low, R.high), edge ids or -1, kept
as a tuple on the stack and unpacked into locals wherever it is read.  All
three passes are iterative, so deep graphs cannot overflow the interpreter
stack.

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
    them; edge e runs from the vertex whose adj_out lists it to dst[e], and
    every per-edge value lives in a list indexed by e.  -1 stands for "no
    vertex" or "no edge".

    Returns (True, rotation) when planar (rotation is None unless
    want_embedding), else (False, None).
    """
    deg = sum(map(len, adj))
    if deg > 2 * euler_max_edges(n):  # Euler edge prefilter
        return False, None
    m = deg // 2
    height = [-1] * n
    parent_edge = [-1] * n
    dst = [-1] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    adj_out: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []

    # ---- phase 1: orientation ----
    # In a DFS of a simple graph a visited neighbor w of v is the parent, a
    # finished descendant whose edge to v is already oriented, or an ancestor
    # above the parent: only the last one gives a new (back) edge.  A back edge
    # is finished at once, a tree edge when its head is done; finishing an edge
    # sets its nesting depth and passes its lowpoints to the edge entering its
    # source.
    its = list(map(iter, adj))
    ei = 0
    for s in range(n):
        if height[s] != -1:
            continue
        height[s] = 0
        roots.append(s)
        stack = [s]
        while stack:
            v = stack[-1]
            hv = height[v]
            pe = parent_edge[v]
            out = adj_out[v]
            for w in its[v]:
                hw = height[w]
                if hw == -1:  # tree edge
                    dst[ei] = w
                    out.append(ei)
                    lowpt[ei] = lowpt2[ei] = hv
                    parent_edge[w] = ei
                    height[w] = hv + 1
                    stack.append(w)
                    ei += 1
                    break
                if hw < hv - 1:  # back edge: lowpt hw, lowpt2 hv, nesting 2 hw
                    dst[ei] = w
                    out.append(ei)
                    lowpt[ei] = hw
                    lowpt2[ei] = hv
                    nesting[ei] = 2 * hw
                    # lowpt2[pe] <= hv - 1, so hv never lowers it
                    lp = lowpt[pe]
                    if hw < lp:
                        lowpt2[pe] = lp
                        lowpt[pe] = hw
                    elif hw > lp and hw < lowpt2[pe]:
                        lowpt2[pe] = hw
                    ei += 1
            else:  # no tree edge left to descend: v is done
                stack.pop()
                if pe == -1:
                    continue
                lo = lowpt[pe]
                lo2 = lowpt2[pe]
                nesting[pe] = 2 * lo + (lo2 < hv - 1)
                up = parent_edge[stack[-1]]
                if up == -1:
                    continue
                lp = lowpt[up]
                if lo < lp:
                    lowpt2[up] = lp if lp < lo2 else lo2
                    lowpt[up] = lo
                elif lo > lp:
                    if lo < lowpt2[up]:
                        lowpt2[up] = lo
                elif lo2 < lowpt2[up]:
                    lowpt2[up] = lo2

    ordered = [sorted(out, key=nesting.__getitem__) if len(out) > 1 else out for out in adj_out]

    # ---- phase 2: testing ----
    # A conflict pair is the tuple (L.low, L.high, R.low, R.high), unpacked
    # into four ints wherever it is read; an interval is empty when both its
    # ends are -1.  bottom[e] is len(S) when e is entered.
    S: list[tuple[int, int, int, int]] = []
    bottom = [0] * m
    lowpt_edge = [-1] * m
    ref = [-1] * m
    side = [1] * m

    def add_constraints(ei, e) -> bool:
        # the new pair P is built in pll, plh, prl, prh
        pll = plh = prl = prh = -1
        # merge return edges of ei into P.R
        le = lowpt[e]
        base = bottom[ei]
        while True:
            ql, qh, rl, rh = S.pop()
            if ql != -1 or qh != -1:
                if rl != -1 or rh != -1:
                    return False
                rl, rh = ql, qh
            if lowpt[rl] > le:
                if prl == -1 and prh == -1:
                    prh = rh
                else:
                    ref[prl] = rh
                prl = rl
            else:
                # align with the lowest return edge of e
                ref[rl] = lowpt_edge[e]
            if len(S) == base:
                break
        # merge return edges of earlier siblings that conflict with ei into P.L;
        # an interval conflicts with ei when its high end returns above lowpt[ei]
        lo = lowpt[ei]
        while True:
            ql, qh, rl, rh = S[-1]
            if rh != -1 and lowpt[rh] > lo:
                if qh != -1 and lowpt[qh] > lo:
                    return False
                ql, qh, rl, rh = rl, rh, ql, qh
            elif qh == -1 or lowpt[qh] <= lo:
                break
            S.pop()
            if prl != -1:
                ref[prl] = rh
            if rl != -1:
                prl = rl
            if pll == -1 and plh == -1:
                plh = qh
            else:
                ref[pll] = qh
            pll = ql
        if pll != -1 or plh != -1 or prl != -1 or prh != -1:
            S.append((pll, plh, prl, prh))
        return True

    its = list(map(iter, ordered))
    for s in roots:
        stack = [s]
        while stack:
            v = stack[-1]
            for ei in its[v]:
                w = dst[ei]
                bottom[ei] = len(S)
                if ei == parent_edge[w]:  # tree edge: integrated once w is done
                    stack.append(w)
                    break
                # back edge: it returns below v, so it is integrated at once
                lowpt_edge[ei] = ei
                S.append((-1, -1, ei, ei))
                e = parent_edge[v]
                if ei == ordered[v][0]:
                    lowpt_edge[e] = ei
                elif not add_constraints(ei, e):
                    return False, None
            else:  # all outgoing edges of v done: fold the tree edge into v's parent
                stack.pop()
                e = parent_edge[v]
                if e == -1:
                    continue
                u = stack[-1]
                hu = height[u]
                # drop the pairs whose lowest return edge ends at u, then the
                # return edges ending at u from the high ends of the top pair
                while S:
                    ql, qh, rl, rh = S[-1]
                    if ql == -1 and qh == -1:
                        low = lowpt[rl]
                    elif rl == -1 and rh == -1:
                        low = lowpt[ql]
                    else:
                        low = min(lowpt[ql], lowpt[rl])
                    if low != hu:
                        while qh != -1 and dst[qh] == u:
                            qh = ref[qh]
                        if qh == -1 and ql != -1:
                            ref[ql] = rl
                            side[ql] = -1
                            ql = -1
                        while rh != -1 and dst[rh] == u:
                            rh = ref[rh]
                        if rh == -1 and rl != -1:
                            ref[rl] = ql
                            side[rl] = -1
                            rl = -1
                        S[-1] = (ql, qh, rl, rh)
                        break
                    S.pop()
                    if ql != -1:
                        side[ql] = -1
                if lowpt[e] < hu:  # e has a return edge: integrate it into u
                    _, hl, _, hr = S[-1]
                    if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                        ref[e] = hl
                    else:
                        ref[e] = hr
                    pe = parent_edge[u]
                    if e == ordered[u][0]:
                        lowpt_edge[pe] = lowpt_edge[e]
                    elif not add_constraints(e, pe):
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
