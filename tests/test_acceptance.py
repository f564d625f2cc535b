"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test is independent and re-derives everything it checks.
"""

from __future__ import annotations

import importlib.resources
import random
import time
from collections import Counter

import pytest

from kronthick.bounds import (
    theta_kn_times_k2,
    theta_knn,
    theta_knnn_times_k2,
    product_lower_bound,
    product_upper_bound,
)
from kronthick.constructions import (
    chen_yin_k4p4p,
    kn_times_k2_decomposition,
    knnn_times_k2_decomposition,
)
from kronthick.errors import SeedRequiredError
from kronthick.graphs import (
    Family,
    Graph,
    VertexLabel,
    make_complete,
    make_complete_bipartite,
    make_cycle,
)
from kronthick.oracle import EXACT, SearchBudget, exact_thickness
from kronthick.products import bipartite_factor_split, kronecker_product, times_k2
from kronthick.serialize import load_json, seed_from_document
from kronthick.verification import OPTIMAL, verify_decomposition

KNNN_SIZES = (1, 3, 4, 5, 8, 9, 12, 13, 16, 17)


def ok(line: str) -> None:
    print(line)


# ============================================================
# Criterion 1: Chen-Yin construction, p = 1..5
# ============================================================


def test_criterion_01_chen_yin_family():
    start = time.monotonic()
    for p in range(1, 6):
        d = chen_yin_k4p4p(p)
        assert len(d.parts) == p + 1
        report = verify_decomposition(d.target, d.parts, lower=theta_knn(4 * p))
        assert report.passed and report.optimality == OPTIMAL
        last = d.parts[-1]
        assert last.num_edges == 4 * p
        assert all(a.index == b.index for a, b in last.edges)
        assert sum(g.num_edges for g in d.parts) == 16 * p * p
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(f"criterion 1: PASS (p=1..5 verified, matching last part, {elapsed:.2f}s)")


# ============================================================
# Criterion 2: theta(K_n x K_2) for n = 2..32
# ============================================================


def test_criterion_02_kn_times_k2_range():
    start = time.monotonic()
    for n in range(2, 33):
        d = kn_times_k2_decomposition(n)
        lower = product_lower_bound(make_complete(n), make_complete(2))
        assert len(d.parts) == -(-n // 4) == lower
        report = verify_decomposition(d.target, d.parts, lower=lower)
        assert report.passed and report.optimality == OPTIMAL
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok(f"criterion 2: PASS (n=2..32 all ceil(n/4) parts, OPTIMAL, {elapsed:.2f}s)")


# ============================================================
# Criterion 3: theta(K_{n,n,n} x K_2) constructive sizes
# ============================================================


def test_criterion_03_knnn_dispatcher():
    start = time.monotonic()
    for n in KNNN_SIZES:
        d = knnn_times_k2_decomposition(n)
        want = theta_knnn_times_k2(n)
        assert len(d.parts) == want
        report = verify_decomposition(d.target, d.parts, lower=want)
        assert report.passed and report.optimality == OPTIMAL
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    ok(
        "criterion 3: PASS (n in "
        f"{KNNN_SIZES} all ceil((n+1)/2) parts, OPTIMAL, {elapsed:.2f}s)"
    )


# ============================================================
# Criterion 4: final part of the n = 4p builder is 4p disjoint 6-cycles
# ============================================================


def test_criterion_04_six_cycle_residue():
    nx = pytest.importorskip("networkx")
    for p in range(1, 5):
        last = knnn_times_k2_decomposition(4 * p).parts[-1]
        h = nx.Graph(last.edges)
        h.add_nodes_from(last.vertices)
        comps = list(nx.connected_components(h))
        assert len(comps) == 4 * p
        for c in comps:
            assert len(c) == 6 and h.subgraph(c).number_of_edges() == 6
        assert all(d == 2 for _, d in h.degree)
    ok("criterion 4: PASS (p=1..4 final part = 4p disjoint 6-cycles)")


# ============================================================
# Criterion 5: n = 4p+1 bookkeeping, p = 2..4
# ============================================================


def test_criterion_05_edge_accounting():
    for p in range(2, 5):
        n = 4 * p + 1
        d = knnn_times_k2_decomposition(4 * p + 1)
        counts = Counter(e for g in d.parts for e in g.edges)
        assert all(c == 1 for c in counts.values())  # no edge appears twice
        assert set(counts) == set(d.target.edges)
        assert sum(counts.values()) == 6 * n * n
    ok("criterion 5: PASS (p=2..4 part edges tile the target exactly once)")


# ============================================================
# Criterion 6: oracle cross-validation
# ============================================================


def test_criterion_06_oracle_values():
    budget = SearchBudget(wall_limit=60.0)
    cases = [
        ("C6", make_cycle(6), 1),
        ("K5", make_complete(5), 2),
        ("K33", make_complete_bipartite(3, 3), 2),
        ("K44", make_complete_bipartite(4, 4), theta_knn(4)),
        ("K5xK2", times_k2(make_complete(5)), theta_kn_times_k2(5)),
    ]
    for name, g, want in cases:
        start = time.monotonic()
        result = exact_thickness(g, budget)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, name
        assert result.status == EXACT, name
        assert result.value == want, name
        w = result.witness
        assert verify_decomposition(w.target, w.parts).passed, name
    ok("criterion 6: PASS (C6=1, K5=2, K33=2, K44=2, K5xK2=2; witnesses verify)")


# ============================================================
# Criterion 7: bipartite factor split identification
# ============================================================


def test_criterion_07_factor_split_grid():
    # each half must be connected, bipartite and complete (networkx)
    nx = pytest.importorskip("networkx")

    def sides(g):
        h = nx.Graph(g.edges)
        h.add_nodes_from(g.vertices)
        assert nx.is_connected(h)
        a, b = nx.bipartite.sets(h)
        assert g.num_edges == len(a) * len(b)
        return tuple(sorted((len(a), len(b))))

    start = time.monotonic()
    for m in range(1, 5):
        for n in range(1, 5):
            for p in range(1, 5):
                for q in range(1, 5):
                    a, b = bipartite_factor_split(m, n, p, q)
                    got = sorted(sides(c) for c in (a, b))
                    want = sorted(
                        [
                            tuple(sorted((m * p, n * q))),
                            tuple(sorted((m * q, n * p))),
                        ]
                    )
                    assert got == want, (m, n, p, q)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(f"criterion 7: PASS (256 splits identified, {elapsed:.2f}s)")


# ============================================================
# Criterion 8: bound sandwich on random factor pairs
# ============================================================


def random_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 7)
    verts = [VertexLabel(Family.PLAIN, i) for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    picked = [e for e in pairs if rng.random() < 0.5]
    return Graph(verts, picked)


def test_criterion_08_bound_sandwich():
    rng = random.Random(20260816)
    budget = SearchBudget(max_nodes=20_000, wall_limit=2.0)
    closed = 0
    for _ in range(200):
        g, h = random_graph(rng), random_graph(rng)
        lower = product_lower_bound(g, h)
        upper = product_upper_bound(g, h)
        assert lower <= upper
        prod = kronecker_product(g, h)
        if prod.num_edges <= 10:
            result = exact_thickness(prod, budget)
            if result.status == EXACT:
                closed += 1
                assert lower <= result.value <= upper
    assert closed > 0
    ok(f"criterion 8: PASS (200 pairs sandwiched; oracle closed {closed})")


# ============================================================
# Criterion 9: mutation robustness for criteria 1-3 decompositions
# ============================================================


def all_passing_decompositions():
    for p in range(1, 6):
        yield chen_yin_k4p4p(p)
    for n in range(2, 33):
        yield kn_times_k2_decomposition(n)
    for n in KNNN_SIZES:
        yield knnn_times_k2_decomposition(n)


def test_criterion_09_mutation_robustness():
    rng = random.Random(20260816)
    for d in all_passing_decompositions():
        for _ in range(10):  # delete one random edge from a random part
            parts = list(d.parts)
            i = rng.randrange(len(parts))
            while parts[i].num_edges == 0:
                i = rng.randrange(len(parts))
            victim = parts[i].edges[rng.randrange(parts[i].num_edges)]
            parts[i] = Graph(parts[i].vertices, [e for e in parts[i].edges if e != victim])
            report = verify_decomposition(d.target, parts)
            assert not report.passed
            assert report.coverage_missing == (victim,)
            assert report.overlap == () and report.coverage_extra == ()
        if len(d.parts) < 2:
            continue  # duplication needs a second part
        for _ in range(10):  # duplicate one edge into another part
            parts = list(d.parts)
            i = rng.randrange(len(parts))
            while parts[i].num_edges == 0:
                i = rng.randrange(len(parts))
            dup = parts[i].edges[rng.randrange(parts[i].num_edges)]
            j = rng.randrange(len(parts))
            while j == i:
                j = rng.randrange(len(parts))
            parts[j] = Graph(parts[j].vertices + dup, parts[j].edges + (dup,))
            report = verify_decomposition(d.target, parts)
            assert not report.passed
            assert report.overlap == ((dup, tuple(sorted((i, j)))),)
            assert report.coverage_missing == ()
    ok("criterion 9: PASS (every mutation flips the verifier with the right defect)")


def test_criterion_09_move_into_nonplanar_part():
    # move one edge from part i into a part j that it makes non-planar (by
    # networkx): coverage still holds, and only part j may be reported
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    hits = 0
    for d in all_passing_decompositions():
        if len(d.parts) < 2:
            continue
        for _ in range(3):
            parts = list(d.parts)
            i = rng.randrange(len(parts))
            while parts[i].num_edges == 0:
                i = rng.randrange(len(parts))
            moved = parts[i].edges[rng.randrange(parts[i].num_edges)]
            others = [j for j in range(len(parts)) if j != i]
            rng.shuffle(others)
            for j in others:
                grown = Graph(parts[j].vertices + moved, parts[j].edges + (moved,))
                if not nx.check_planarity(nx.Graph(grown.edges))[0]:
                    break
            else:
                continue  # every other part stays planar with this edge
            parts[i] = Graph(parts[i].vertices, [e for e in parts[i].edges if e != moved])
            parts[j] = grown
            report = verify_decomposition(d.target, parts)
            assert report.nonplanar_parts == (j,)
            assert report.coverage_missing == () and report.coverage_extra == ()
            assert report.overlap == ()
            hits += 1
    assert hits > 0
    ok(f"criterion 9: PASS ({hits} edges moved into a part they make non-planar)")


# ============================================================
# Criterion 10: seeded assembly for n = 7 and restriction to n = 6
# ============================================================


def test_criterion_10_seeded_assembly():
    path = (
        importlib.resources.files("kronthick")
        .joinpath("data")
        .joinpath("seed_k7_7.json")
    )
    seed = seed_from_document(load_json(str(path)))
    d7 = knnn_times_k2_decomposition(7, lambda p: seed)
    assert len(d7.parts) == 4 == theta_knnn_times_k2(7)
    assert verify_decomposition(d7.target, d7.parts, lower=4).passed
    # n = 6 goes through the dispatcher, which builds n = 7 and restricts
    d6 = knnn_times_k2_decomposition(6, seed_provider=lambda p: seed)
    assert len(d6.parts) == 4 == theta_knnn_times_k2(6)
    assert verify_decomposition(d6.target, d6.parts, lower=4).passed
    # the documented error path stays intact: no implicit seed loading
    with pytest.raises(SeedRequiredError):
        knnn_times_k2_decomposition(7)
    ok("criterion 10: PASS (seeded n=7 gives 4 parts; restriction to n=6 verifies)")
