"""Exhaustive exact-thickness search for small graphs.

Edges are assigned to parts in a fixed order, depth-first, by a loop over a
stack of part choices (no recursion, so long edge lists are fine).  A part
takes an edge only if it stays under the Euler edge capacity and stays
planar; the LR test runs only when the edge closes a cycle in the part, as
tracked by a per-part union-find undone on backtrack.  When the parts must
be filled to capacity exactly, a per-vertex degree slack cuts every branch
in which some part can no longer reach the minimum degree of a maximal
planar graph.  Part indices appear in first-use order so permuting part
names never revisits the same split.  The counting prune (k parts hold at
most k * capacity edges) runs once.  Budgets cap both search nodes and wall
time; running out of budget is reported distinctly from a proven "no
partition exists".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .bounds import ORACLE, thickness_lower_bound
from .constructions import Decomposition
from .errors import PreconditionError, StructuralViolationError
from .graphs import Graph, is_triangle_free
from .planarity import euler_max_edges, is_planar, is_planar_edge_list
from .verification import OPTIMAL, UPPER_BOUND_ONLY, verify_decomposition

EXACT = "EXACT"
BOUNDS_ONLY = "BOUNDS_ONLY"
TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 2_000_000
    wall_limit: float = 60.0

    def __post_init__(self) -> None:
        if self.max_nodes <= 0 or self.wall_limit <= 0:
            raise PreconditionError("budget limits must be positive")


@dataclass(frozen=True)
class PartitionSearchResult:
    """Outcome of one fixed-k search: found witness, or proof of absence, or timeout."""

    found: object | None  # Decomposition when a partition was found
    exhausted: bool  # True iff the whole space was searched and is empty
    nodes: int


@dataclass(frozen=True)
class OracleResult:
    status: str  # EXACT, BOUNDS_ONLY, or TIMEOUT
    value: int | None
    lower: int
    upper: int | None
    witness: object | None


def _root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        v = parent[v]
    return v


def _search_partition(n, int_edges, k, triangle_free, deadline, node_limit):
    """Depth-first search over edge-to-part assignments on integer vertex ids.

    A loop over the stack of part choices, one per placed edge.  Returns
    (parts or None, exhausted, nodes).  parts is a list of edge lists.

    A part may take the next edge if it stays under the Euler capacity cap,
    no vertex's slack (below) goes negative, and it stays planar.  The LR
    test runs only when the edge closes a cycle in the part: an edge that
    joins two components of a planar graph keeps it planar.  Each part's
    components are a union-find (union by size, no path compression), so
    the union made by an edge is undone when the edge is taken back.

    Zero-slack degree prune.  When k * cap == m, every part of a solution
    holds exactly cap edges.  For n >= 4 such a part has minimum degree at
    least delta = 3, or delta = 2 when g is triangle-free (cap = 2n - 4):
    deleting a vertex of degree d < delta leaves cap - d edges on n - 1 >= 3
    vertices, which is over the Euler bound for n - 1.  So slack[v], the
    unplaced edges at v minus the sum over all k parts (unopened ones too)
    of max(0, delta - deg_p(v)), is 0 at every solution.  Placing an edge
    never raises it, so a choice that drives it below 0 leads to no
    solution.  Below 4 vertices, or when k * cap > m, delta = 0 and the
    prune never fires.  Both shortcuts only skip dead choices and certain
    answers, so the DFS order and the first witness are unchanged.
    """
    m = len(int_edges)
    cap = euler_max_edges(n, triangle_free)
    # Counting prune: at node i the free capacity k*cap - i must hold the
    # m - i edges left, which is the same test at every node.
    if m and k * cap < m:
        return None, True, 1
    delta = (2 if triangle_free else 3) if n >= 4 and k * cap == m else 0
    slack = [-k * delta] * n
    for a, b in int_edges:
        slack[a] += 1
        slack[b] += 1
    if min(slack, default=0) < 0:
        return None, True, 1
    parts: list[list[tuple[int, int]]] = []
    # tables[p] = (degree, union-find parent, component size) of part p; a
    # closed part's table is back to its initial state and is reused
    tables: list[tuple[list[int], list[int], list[int]]] = []
    placed: list[int] = []  # placed[i] = index of the part holding edge i
    hung: list[int] = []  # hung[i] = root edge i linked below another, or -1
    nodes = 0
    p = None  # next part to try for edge len(placed); None at a new node
    while True:
        i = len(placed)
        if p is None:
            nodes += 1
            if nodes > node_limit or (nodes & 127 == 0 and time.monotonic() > deadline):
                return None, False, nodes
            if i == m:
                return parts, False, nodes
            p = 0
        e = a, b = int_edges[i]
        while p < len(parts):
            pe = parts[p]
            deg, parent, size = tables[p]
            if (
                len(pe) < cap
                and (deg[a] < delta or slack[a] > 0)
                and (deg[b] < delta or slack[b] > 0)
            ):
                ra, rb = _root(parent, a), _root(parent, b)
                pe.append(e)
                if ra != rb or is_planar_edge_list(n, pe):
                    break
                pe.pop()
            p += 1
        else:
            if p > len(parts) or p == k:  # no choice left: take back edge i-1
                if not placed:
                    return None, True, nodes
                p = placed.pop()
                a, b = parts[p].pop()
                deg, parent, size = tables[p]
                deg[a] -= 1
                deg[b] -= 1
                slack[a] += deg[a] >= delta
                slack[b] += deg[b] >= delta
                r = hung.pop()
                if r >= 0:
                    size[parent[r]] -= size[r]
                    parent[r] = r
                if not parts[p]:
                    parts.pop()  # edge i-1 had opened this part
                p += 1
                continue
            if p == len(tables):
                tables.append(([0] * n, list(range(n)), [1] * n))
            parts.append([e])
            deg, parent, size = tables[p]
            ra, rb = a, b
        # the edge leaves the unplaced count of each end, and fills that
        # end's deficit in part p only while its degree there is below delta
        slack[a] -= deg[a] >= delta
        slack[b] -= deg[b] >= delta
        deg[a] += 1
        deg[b] += 1
        if ra == rb:
            hung.append(-1)
        else:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            hung.append(rb)
        placed.append(p)
        p = None


def find_planar_partition(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> PartitionSearchResult:
    """Search for a partition of E(g) into k planar parts.

    Found witnesses are re-verified before being returned.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.wall_limit

    # pairs are (i, j) with i < j: edges in order of their later end
    int_edges = sorted(g.pairs, key=lambda e: (e[1], e[0]))
    parts, exhausted, nodes = _search_partition(
        g.num_vertices, int_edges, k, is_triangle_free(g), deadline, budget.max_nodes
    )
    if parts is None:
        return PartitionSearchResult(found=None, exhausted=exhausted, nodes=nodes)

    vs = g.vertices
    part_graphs = [Graph({vs[i] for ab in pe for i in ab}, [(vs[a], vs[b]) for a, b in pe])
                   for pe in parts]
    d = Decomposition(
        target=g,
        parts=tuple(part_graphs),
        guarantee=UPPER_BOUND_ONLY,
        provenance=ORACLE,
    )
    report = verify_decomposition(g, d.parts)
    if not report.passed:
        raise StructuralViolationError(
            f"search produced an invalid partition: {report.summary()}"
        )
    return PartitionSearchResult(found=d, exhausted=False, nodes=nodes)


def exact_thickness(g: Graph, budget: SearchBudget | None = None) -> OracleResult:
    """Iterative deepening over k, starting at the Euler lower bound.

    EXACT means a verified witness at k exists and k-1 is proven infeasible
    (by exhaustion, or by the counting bound when k is the starting point).
    """
    if g.num_vertices == 0:
        raise PreconditionError("thickness is undefined for the empty vertex set")
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.wall_limit

    if is_planar(g).planar:
        witness = Decomposition(
            target=g, parts=(g,), guarantee=OPTIMAL, provenance=ORACLE
        )
        return OracleResult(EXACT, value=1, lower=1, upper=1, witness=witness)

    lb = max(2, thickness_lower_bound(g))
    nodes_used = 0
    k = lb
    while True:
        remaining_nodes = budget.max_nodes - nodes_used
        remaining_time = deadline - time.monotonic()
        if remaining_nodes <= 0 or remaining_time <= 0:
            break
        res = find_planar_partition(
            g, k, SearchBudget(remaining_nodes, max(remaining_time, 1e-3))
        )
        nodes_used += res.nodes
        if res.found is not None:
            witness = replace(res.found, guarantee=OPTIMAL)
            return OracleResult(EXACT, value=k, lower=k, upper=k, witness=witness)
        if not res.exhausted:
            break
        k += 1
    status = BOUNDS_ONLY if k > lb else TIMEOUT
    return OracleResult(status, value=None, lower=k, upper=None, witness=None)
