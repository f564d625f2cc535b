from __future__ import annotations

from kronthick.constructions import chen_yin_k4p4p
from kronthick.graphs import (
    Family,
    Graph,
    edge,
    make_complete,
    make_complete_bipartite,
)
from kronthick.verification import (
    NOT_CERTIFIED,
    OPTIMAL,
    verify_decomposition,
)


def k88_parts():
    d = chen_yin_k4p4p(2)
    return d.target, list(d.parts)


# ============================================================
# Clean pass
# ============================================================


def test_chen_yin_p2_passes():
    target, parts = k88_parts()
    report = verify_decomposition(target, parts)
    assert report.passed
    assert report.coverage_missing == ()
    assert report.coverage_extra == ()
    assert report.overlap == ()
    assert report.nonplanar_parts == ()


def test_passed_iff_no_defects():
    target, parts = k88_parts()
    report = verify_decomposition(target, parts)
    defects = (
        report.coverage_missing,
        report.coverage_extra,
        report.overlap,
        report.nonplanar_parts,
    )
    assert report.passed == all(not d for d in defects)


# ============================================================
# Single-defect mutations
# ============================================================


def test_deleted_edge_reported_missing():
    target, parts = k88_parts()
    victim = parts[0].edges[3]
    parts[0] = Graph(parts[0].vertices, [e for e in parts[0].edges if e != victim])
    report = verify_decomposition(target, parts)
    assert not report.passed
    assert report.coverage_missing == (victim,)
    assert report.overlap == ()


def test_duplicated_edge_reported_overlapping():
    target, parts = k88_parts()
    moved = parts[0].edges[0]
    parts[1] = Graph(parts[1].vertices + moved, parts[1].edges + (moved,))
    report = verify_decomposition(target, parts)
    assert not report.passed
    assert report.overlap == ((moved, (0, 1)),)
    assert report.coverage_missing == ()


def test_foreign_edge_reported_extra():
    target, parts = k88_parts()
    u = [v for v in target.vertices if v.family is Family.U]
    foreign = edge(u[0], u[1])  # same-side edge, not in K_{8,8}
    parts[0] = Graph(parts[0].vertices + foreign, parts[0].edges + (foreign,))
    report = verify_decomposition(target, parts)
    assert not report.passed
    assert foreign in report.coverage_extra


def test_nonplanar_part_flagged():
    target, parts = k88_parts()
    five = list(target.vertices)[:5]
    k5 = Graph(five, [(a, b) for i, a in enumerate(five) for b in five[i + 1 :]])
    parts[1] = Graph(parts[1].vertices + k5.vertices, parts[1].edges + k5.edges)
    report = verify_decomposition(target, parts)
    assert not report.passed
    assert 1 in report.nonplanar_parts


def test_defect_order_deterministic():
    target, parts = k88_parts()
    victims = [parts[0].edges[0], parts[0].edges[5], parts[0].edges[2]]
    parts[0] = Graph(parts[0].vertices, [e for e in parts[0].edges if e not in victims])
    a = verify_decomposition(target, parts)
    b = verify_decomposition(target, parts)
    assert a == b
    assert list(a.coverage_missing) == sorted(a.coverage_missing)


def test_summary_strings():
    target, parts = k88_parts()
    assert verify_decomposition(target, parts).summary().startswith("PASS")
    parts[0] = Graph(parts[0].vertices, parts[0].edges[1:])
    assert verify_decomposition(target, parts).summary().startswith("FAIL")


# ============================================================
# Optimality
# ============================================================


def test_optimal_requires_matching_lower():
    target, parts = k88_parts()
    assert verify_decomposition(target, parts, lower=3).optimality == OPTIMAL
    assert verify_decomposition(target, parts, lower=2).optimality == NOT_CERTIFIED
    assert verify_decomposition(target, parts).optimality == NOT_CERTIFIED


# ============================================================
# Small corner cases
# ============================================================


def test_empty_part_list_on_edgeless_target():
    target = Graph(make_complete(3).vertices, [])
    report = verify_decomposition(target, [])
    assert report.passed


def test_verify_tolerates_parts_missing_isolated_vertices():
    # parts only need to carry their own edges, not the full vertex set
    target = make_complete_bipartite(2, 2)
    e1, e2, e3, e4 = target.edges
    parts = [Graph(set(sum(([a, b] for a, b in (e1, e2)), [])), [e1, e2]),
             Graph(set(sum(([a, b] for a, b in (e3, e4)), [])), [e3, e4])]
    assert verify_decomposition(target, parts).passed
