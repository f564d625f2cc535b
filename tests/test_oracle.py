from __future__ import annotations

import inspect
import sys

import pytest

from kronthick.bounds import theta_kn_times_k2, theta_knn
from kronthick.errors import PreconditionError
from kronthick.graphs import (
    Family,
    Graph,
    VertexLabel,
    edge,
    graph_union,
    make_complete,
    make_complete_bipartite,
    make_cycle,
)
from kronthick.oracle import (
    BOUNDS_ONLY,
    EXACT,
    TIMEOUT,
    OracleResult,
    SearchBudget,
    exact_thickness,
    find_planar_partition,
)
from kronthick.products import times_k2
from kronthick.verification import verify_decomposition

BUDGET = SearchBudget(max_nodes=500_000, wall_limit=60.0)


# ============================================================
# Fixed-k partition search
# ============================================================


def test_k5_two_parts_found():
    result = find_planar_partition(make_complete(5), 2, BUDGET)
    assert result.found is not None
    d = result.found
    assert verify_decomposition(d.target, d.parts).passed
    assert len(d.parts) == 2


def test_k5_one_part_proven_impossible():
    result = find_planar_partition(make_complete(5), 1, BUDGET)
    assert result.found is None
    assert result.exhausted


def test_planar_graph_one_part():
    result = find_planar_partition(make_cycle(6), 1, BUDGET)
    assert result.found is not None
    assert len(result.found.parts) == 1


def test_forced_single_edge_part():
    g = make_complete_bipartite(3, 3)
    u = [v for v in g.vertices if v.family is Family.U]
    w = [v for v in g.vertices if v.family is Family.V]
    pin = edge(u[0], w[0])
    result = find_planar_partition(g, 3, BUDGET, force_single_edge=pin)
    assert result.found is not None
    assert any(p.edge_set == frozenset([pin]) for p in result.found.parts)
    assert verify_decomposition(g, result.found.parts).passed


def test_budget_validation():
    with pytest.raises(PreconditionError):
        SearchBudget(max_nodes=0)
    with pytest.raises(PreconditionError):
        SearchBudget(wall_limit=0)


def test_tiny_budget_times_out_without_lying():
    g = make_complete_bipartite(5, 5)
    result = find_planar_partition(g, 2, SearchBudget(max_nodes=3, wall_limit=60.0))
    if result.found is not None:
        assert verify_decomposition(g, result.found.parts).passed
    else:
        assert not result.exhausted  # 3 nodes cannot exhaust this space


def _k33_plus_two_isolated():
    k33 = make_complete_bipartite(3, 3)
    extra = [VertexLabel(Family.PLAIN, 1), VertexLabel(Family.PLAIN, 2)]
    return Graph(list(k33.vertices) + extra, k33.edges)


# (graph, k) -> (found, exhausted, nodes); pins the visiting order and the
# node count, which budgets and TIMEOUT outcomes depend on
PINNED = [
    pytest.param(lambda: times_k2(make_complete(7)), 2, True, False, 49, id="K7xK2-2"),
    pytest.param(lambda: make_complete_bipartite(6, 6), 2, True, False, 67, id="K66-2"),
    pytest.param(lambda: make_complete(9), 2, False, False, 501, id="K9-2"),
    pytest.param(_k33_plus_two_isolated, 1, False, True, 9, id="K33+2-1"),
    pytest.param(lambda: make_complete(5), 1, False, True, 1, id="K5-1"),
    pytest.param(lambda: make_complete(5), 2, True, False, 11, id="K5-2"),
]


@pytest.mark.parametrize("make, k, found, exhausted, nodes", PINNED)
def test_pinned_node_counts(make, k, found, exhausted, nodes):
    result = find_planar_partition(make(), k, SearchBudget(max_nodes=500, wall_limit=600))
    assert (result.found is not None, result.exhausted, result.nodes) == (
        found,
        exhausted,
        nodes,
    )


# ============================================================
# Exact thickness
# ============================================================


def test_long_edge_list_needs_no_recursion():
    # 309 edges; the search depth is the edge count
    g = graph_union(make_cycle(300), make_complete_bipartite(3, 3))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        r = exact_thickness(g)
    finally:
        sys.setrecursionlimit(limit)
    assert r.status == EXACT and r.value == 2


def test_exact_c6():
    r = exact_thickness(make_cycle(6), BUDGET)
    assert r.status == EXACT and r.value == 1


def test_exact_k5():
    r = exact_thickness(make_complete(5), BUDGET)
    assert r.status == EXACT and r.value == 2
    assert verify_decomposition(r.witness.target, r.witness.parts).passed


def test_exact_k33():
    r = exact_thickness(make_complete_bipartite(3, 3), BUDGET)
    assert r.status == EXACT and r.value == 2


def test_exact_matches_formulas():
    r = exact_thickness(make_complete_bipartite(4, 4), BUDGET)
    assert r.status == EXACT and r.value == theta_knn(4)
    r = exact_thickness(times_k2(make_complete(5)), BUDGET)
    assert r.status == EXACT and r.value == theta_kn_times_k2(5)


def test_exact_deterministic():
    a = exact_thickness(make_complete(5), BUDGET)
    b = exact_thickness(make_complete(5), BUDGET)
    assert (a.status, a.value) == (b.status, b.value)


def test_timeout_reports_honest_bounds():
    g = make_complete_bipartite(6, 6)
    r = exact_thickness(g, SearchBudget(max_nodes=50, wall_limit=60.0))
    if r.status == EXACT:
        assert r.value == theta_knn(6)
    else:
        assert r.status in (TIMEOUT, BOUNDS_ONLY)
        assert r.lower >= 1
        assert r.upper is None or r.lower <= r.upper
