from __future__ import annotations

import hashlib
import inspect
import random
import sys
import time

import pytest

import kronthick.oracle as oracle
from kronthick.bounds import theta_kn_times_k2, theta_knn
from kronthick.errors import PreconditionError, StructuralViolationError
from kronthick.graphs import (
    Family,
    Graph,
    VertexLabel,
    make_complete,
    make_complete_bipartite,
    make_cycle,
)
from kronthick.oracle import (
    BOUNDS_ONLY,
    EXACT,
    TIMEOUT,
    SearchBudget,
    exact_thickness,
    find_planar_partition,
)
from kronthick.planarity import euler_max_edges, is_planar_edge_list
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
    # a part that is one given edge: search the rest, then append the edge
    g = make_complete_bipartite(3, 3)
    pin = (VertexLabel(Family.U, 1), VertexLabel(Family.V, 1))
    rest = Graph(g.vertices, [e for e in g.edges if e != pin])
    result = find_planar_partition(rest, 2, BUDGET)
    assert result.found is not None
    parts = result.found.parts + (Graph(pin, [pin]),)
    assert verify_decomposition(g, parts).passed


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


def _count_lr_calls(monkeypatch):
    calls = [0]

    def counting(n, edges):
        calls[0] += 1
        return is_planar_edge_list(n, edges)

    monkeypatch.setattr(oracle, "is_planar_edge_list", counting)
    return calls


def _witness_digest(d):
    text = "|".join(" ".join(sorted(f"{a.name}-{b.name}" for a, b in p.edges)) for p in d.parts)
    return hashlib.sha256(text.encode()).hexdigest()


def test_k8_times_k2_pinned(monkeypatch):
    # zero slack (2 * 28 == 56 edges on 16 vertices, triangle-free): the
    # search without the degree prune and the bridge skip needed 43,814
    # nodes and 83,637 LR calls, and found the witness with this digest
    calls = _count_lr_calls(monkeypatch)
    result = find_planar_partition(times_k2(make_complete(8)), 2)
    assert result.found is not None
    assert (result.nodes, calls[0]) == (7815, 10731)
    assert (
        _witness_digest(result.found)
        == "d16beb17467fd95e2263dd78416738ea8fa44917e125fdf7532b07490f0df4cd"
    )


def test_tight_bipartite_found_in_few_nodes():
    # 48 edges = 2 * (2 * 14 - 4): every part must be a maximal
    # triangle-free planar graph, so the degree prune cuts every branch that
    # leaves a vertex below degree 2 in some part; without it the same first
    # witness lies beyond 600,000 nodes
    result = find_planar_partition(make_complete_bipartite(6, 8), 2, BUDGET)
    assert result.found is not None
    assert result.nodes == 49


def test_long_edge_list_skips_bridge_tests(monkeypatch):
    # every cycle edge joins two components of its part until the cycle
    # closes, so only closing edges need an LR call
    calls = _count_lr_calls(monkeypatch)
    c, k33 = make_cycle(1200), make_complete_bipartite(3, 3)
    g = Graph(c.vertices + k33.vertices, c.edges + k33.edges)
    assert find_planar_partition(g, 2).found is not None
    assert calls[0] <= 10


@pytest.mark.parametrize(
    "fake",
    [
        pytest.param(lambda n, edges, *rest: ([list(edges)], False, 1), id="nonplanar-part"),
        pytest.param(lambda n, edges, *rest: ([list(edges[1:])], False, 1), id="dropped-edge"),
    ],
)
def test_witness_is_rechecked(monkeypatch, fake):
    monkeypatch.setattr(oracle, "_search_partition", fake)
    with pytest.raises(StructuralViolationError):
        find_planar_partition(make_complete(5), 2, BUDGET)


# ============================================================
# Differential test against the search without shortcuts
# ============================================================


def _reference_search(n, int_edges, k, triangle_free, deadline, node_limit):
    """The search before the degree prune and the bridge skip: every
    assignment under capacity gets a full LR test."""
    cap = euler_max_edges(n, triangle_free)
    m = len(int_edges)
    if m and k * cap < m:
        return None, True, 1
    parts = []
    placed = []
    nodes = 0
    p = None
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
            if p > len(parts) or p == k:
                if not placed:
                    return None, True, nodes
                p = placed.pop()
                parts[p].pop()
                if not parts[p]:
                    parts.pop()
                p += 1
                continue
            parts.append([e])
        placed.append(p)
        p = None


def _plain_graph(n, edges):
    vs = [VertexLabel(Family.PLAIN, i + 1) for i in range(n)]
    return Graph(vs, [(vs[a], vs[b]) for a, b in edges])


def _random_graph(rng, n, m, among=None):
    """m random edges on n vertices, all among the first `among` of them."""
    among = n if among is None else among
    pairs = [(a, b) for b in range(among) for a in range(b)]
    return _plain_graph(n, rng.sample(pairs, m))


def _random_bipartite(rng, n, m):
    left = n // 2
    pairs = [(a, b) for a in range(left) for b in range(left, n)]
    return _plain_graph(n, rng.sample(pairs, m))


def _without(g, e):
    return Graph(g.vertices, [x for x in g.edges if x != e])


def _differential_cases():
    cases = []  # (graph, k)
    for n in range(4, 9):
        rng = random.Random(f"oracle-diff-{n}")
        for _ in range(30):
            cases.append((_random_graph(rng, n, 3 * n - 6), 1))
        for _ in range(10):
            cases.append((_random_bipartite(rng, n, 2 * n - 4), 1))
        top = n * (n - 1) // 2
        for _ in range(30 if 3 * n - 5 <= top else 0):
            g = _random_graph(rng, n, 3 * n - 5)
            cases.append((_without(g, rng.choice(g.edges)), 1))
        for _ in range(20):
            cases.append((_random_graph(rng, n, rng.randint(n, top)), 2))
            g = _random_graph(rng, n, rng.randint(n, top))
            cases.append((_without(g, rng.choice(g.edges)), 1))
        if 3 * n - 6 <= (n - 1) * (n - 2) // 2:  # tight, with vertex n-1 isolated
            for _ in range(10):
                cases.append((_random_graph(rng, n, 3 * n - 6, among=n - 1), 1))
    for n in range(1, 4):
        pairs = [(a, b) for b in range(n) for a in range(b)]
        for mask in range(1 << len(pairs)):
            g = _plain_graph(n, [pr for j, pr in enumerate(pairs) if mask >> j & 1])
            cases += [(g, 1), (g, 2)]
            if g.edges:
                cases.append((_without(g, g.edges[0]), 1))
    for g in (make_complete(6), make_complete_bipartite(3, 4)):  # tight once a vertex is added
        isolated = VertexLabel(Family.X, 1)
        cases.append((Graph(list(g.vertices) + [isolated], g.edges), 1))
    return cases


def test_search_matches_reference(monkeypatch):
    cases = _differential_cases()
    assert len(cases) > 500
    budget = SearchBudget(max_nodes=100_000, wall_limit=600)

    def outcome(g, k):
        r = find_planar_partition(g, k, budget)
        found = None if r.found is None else [p.edges for p in r.found.parts]
        return found, r.exhausted, r.nodes

    for g, k in cases:
        found, exhausted, nodes = outcome(g, k)
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_search_partition", _reference_search)
            ref_found, ref_exhausted, ref_nodes = outcome(g, k)
        assert (found, exhausted) == (ref_found, ref_exhausted), (g.edges, k)
        assert nodes <= ref_nodes
        assert found is not None or exhausted  # the budget never ran out


# ============================================================
# Exact thickness
# ============================================================


def test_long_edge_list_needs_no_recursion():
    # 309 edges; the search depth is the edge count
    c, k33 = make_cycle(300), make_complete_bipartite(3, 3)
    g = Graph(c.vertices + k33.vertices, c.edges + k33.edges)
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
