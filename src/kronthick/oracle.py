"""Exhaustive exact-thickness search for small graphs.

Edges are assigned to parts in a fixed order, depth-first, by a loop over a
stack of part choices (no recursion, so long edge lists are fine), with three
prunes: each part must stay planar (full re-test on every assignment), each
part must stay under the Euler edge capacity, and part indices appear in
first-use order so permuting part names never revisits the same split.  The
counting prune (k parts hold at most k * capacity edges) runs once.  Budgets
cap both search nodes and wall time; running out of budget is reported
distinctly from a proven "no partition exists".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .bounds import ORACLE, thickness_lower_bound
from .constructions import Decomposition
from .errors import PreconditionError, StructuralViolationError
from .graphs import Graph, edge, is_triangle_free
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


def _search_partition(n, int_edges, k, cap, deadline, node_limit):
    """Depth-first search over edge-to-part assignments on integer vertex ids.

    A loop over the stack of part choices, one per placed edge.  Returns
    (parts or None, exhausted, nodes).  parts is a list of edge lists.
    """
    m = len(int_edges)
    # Counting prune: at node i the free capacity k*cap - i must hold the
    # m - i edges left, which is the same test at every node.
    if m and k * cap < m:
        return None, True, 1
    parts: list[list[tuple[int, int]]] = []
    placed: list[int] = []  # placed[i] = index of the part holding edge i
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
        e = int_edges[i]
        while p < len(parts):
            pe = parts[p]
            if len(pe) < cap:
                pe.append(e)
                if is_planar_edge_list(n, pe):
                    break
                pe.pop()
            p += 1
        else:
            if p > len(parts) or p == k:  # no choice left: take back edge i-1
                if not placed:
                    return None, True, nodes
                p = placed.pop()
                parts[p].pop()
                if not parts[p]:
                    parts.pop()  # edge i-1 had opened this part
                p += 1
                continue
            parts.append([e])
        placed.append(p)
        p = None


def find_planar_partition(
    g: Graph,
    k: int,
    budget: SearchBudget | None = None,
    force_single_edge=None,
) -> PartitionSearchResult:
    """Search for a partition of E(g) into k planar parts.

    force_single_edge pins one part to be exactly that edge (the remaining
    k-1 parts cover everything else).  Found witnesses are re-verified before
    being returned.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.wall_limit

    forced = None
    search_edges = g.edge_set
    inner_k = k
    if force_single_edge is not None:
        a, b = force_single_edge
        forced = edge(a, b)
        if forced not in g.edge_set:
            raise PreconditionError("forced edge is not an edge of the target")
        search_edges = g.edge_set - {forced}
        inner_k = k - 1
        if inner_k < 1 and search_edges:
            return PartitionSearchResult(found=None, exhausted=True, nodes=0)

    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    int_edges = sorted(
        ((index[a], index[b]) for a, b in search_edges),
        key=lambda e: (max(e), min(e)),
    )
    cap = euler_max_edges(g.num_vertices, is_triangle_free(g))
    parts, exhausted, nodes = _search_partition(
        g.num_vertices, int_edges, inner_k, cap, deadline, budget.max_nodes
    )
    if parts is None:
        return PartitionSearchResult(found=None, exhausted=exhausted, nodes=nodes)

    part_graphs = []
    for pe in parts:
        endpoints = {verts[i] for ab in pe for i in ab}
        part_graphs.append(Graph(endpoints, [(verts[a], verts[b]) for a, b in pe]))
    if forced is not None:
        part_graphs.append(Graph(set(forced), [forced]))
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
            status = BOUNDS_ONLY if k > lb else TIMEOUT
            return OracleResult(status, value=None, lower=k, upper=None, witness=None)
        res = find_planar_partition(
            g, k, SearchBudget(remaining_nodes, max(remaining_time, 1e-3))
        )
        nodes_used += res.nodes
        if res.found is not None:
            witness = replace(res.found, guarantee=OPTIMAL)
            return OracleResult(EXACT, value=k, lower=k, upper=k, witness=witness)
        if res.exhausted:
            k += 1
            continue
        status = BOUNDS_ONLY if k > lb else TIMEOUT
        return OracleResult(status, value=None, lower=k, upper=None, witness=None)
