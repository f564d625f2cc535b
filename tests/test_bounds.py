from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronthick.bounds import (
    BoundReport,
    LEMMA_3_1,
    THM_2_1,
    THM_2_2,
    THM_3_4,
    THM_4_7,
    g_times_k2_bounds,
    knn_report,
    knnn_times_k2_report,
    product_bounds_report,
    product_lower_bound,
    product_upper_bound,
    theta_kmn_times_kpq,
    theta_kn_times_k2,
    theta_knn,
    theta_knnn_times_k2,
    thickness_lower_bound,
    tripartite_times_k2_bounds,
)
from kronthick.cli import parse_graph_spec
from kronthick.errors import InvalidSizeError, PreconditionError
from kronthick.graphs import (
    Graph,
    Family,
    VertexLabel,
    is_triangle_free,
    make_complete,
    make_complete_tripartite,
    make_cycle,
    make_path,
)
from kronthick.products import kronecker_product
from kronthick.serialize import bound_report_document, to_json

# ============================================================
# Closed-form values
# ============================================================


def test_theta_knn_values():
    assert theta_knn(2) == 1
    assert theta_knn(4) == 2
    assert theta_knn(7) == 3
    with pytest.raises(InvalidSizeError):
        theta_knn(0)


def test_theta_kn_times_k2_values():
    assert theta_kn_times_k2(1) == 1
    assert theta_kn_times_k2(2) == 1
    assert theta_kn_times_k2(4) == 1
    assert theta_kn_times_k2(5) == 2
    assert theta_kn_times_k2(8) == 2
    assert theta_kn_times_k2(9) == 3


def test_theta_knnn_times_k2_values():
    assert theta_knnn_times_k2(1) == 1
    assert theta_knnn_times_k2(3) == 2
    assert theta_knnn_times_k2(8) == 5
    assert theta_knnn_times_k2(12) == 7


# ============================================================
# Generic lower bounds
# ============================================================


def test_thickness_lower_bound_basics():
    assert thickness_lower_bound(make_cycle(6)) == 1
    assert thickness_lower_bound(make_complete(5)) == 2
    edgeless = Graph([VertexLabel(Family.PLAIN, 1)], [])
    assert thickness_lower_bound(edgeless) == 1


def test_product_lower_bound_k5_k5():
    # ceil(2*10*10 / (3*25-6)) = ceil(200/69) = 3
    assert product_lower_bound(make_complete(5), make_complete(5)) == 3


@pytest.mark.parametrize("n", range(2, 33))
def test_product_lower_bound_kn_k2(n):
    got = product_lower_bound(make_complete(n), make_complete(2))
    assert got == theta_kn_times_k2(n)


@pytest.mark.parametrize("n", range(1, 41))
def test_tripartite_lower_matches_closed_form(n):
    # ceil(3n^2 / (6n-2)) = ceil((n+1)/2) over the whole range
    got = product_lower_bound(make_complete_tripartite(n, n, n), make_complete(2))
    assert got == theta_knnn_times_k2(n)


def test_product_lower_bound_needs_two_vertices():
    single = Graph([VertexLabel(Family.PLAIN, 1)], [])
    with pytest.raises(PreconditionError):
        product_lower_bound(single, make_complete(2))


# ============================================================
# Upper bounds
# ============================================================


def test_product_upper_bound_k2_k2():
    assert product_upper_bound(make_complete(2), make_complete(2)) == 1


def test_product_upper_bound_seven_vertex_times_path():
    # C7 x K2 is a single 14-cycle, so each of P3's two edges costs one
    # planar layer: bound 2.
    assert product_upper_bound(make_cycle(7), make_path(3)) == 2


def test_product_upper_bound_k2_factor_reduces_to_double_cover():
    g = make_complete(9)
    assert product_upper_bound(g, make_complete(2)) == theta_kn_times_k2(9)


# ============================================================
# Reports
# ============================================================


def test_g_times_k2_bounds_on_complete_graphs():
    for n in range(2, 17):
        rep = g_times_k2_bounds(make_complete(n))
        assert rep.exact == theta_kn_times_k2(n)


def test_g_times_k2_bounds_small_cases():
    two = make_complete(2)
    rep = g_times_k2_bounds(two)
    assert (rep.lower, rep.upper, rep.exact) == (1, 1, 1)
    rep = g_times_k2_bounds(make_cycle(6))
    assert rep.exact == 1


def test_bipartite_product_reports():
    for n in range(1, 13):
        rep = theta_kmn_times_kpq(n, n, 1, 1)
        assert rep.exact == theta_knn(n)
    assert theta_kmn_times_kpq(2, 9, 1, 1).exact == 1
    assert theta_kmn_times_kpq(1, 1, 1, 1).exact == 1


def test_kmn_times_kpq_2312():
    # components are K_{2,6} (planar) and K_{4,3}; K_{4,3} contains K_{3,3},
    # so the maximum is 2
    rep = theta_kmn_times_kpq(2, 3, 1, 2)
    assert rep.exact == 2


def test_kmn_times_kpq_rejects_bad_sizes():
    with pytest.raises(InvalidSizeError):
        theta_kmn_times_kpq(0, 1, 1, 1)


def test_tripartite_times_k2_bounds_4p_plus_2():
    for p in range(0, 5):
        n = 4 * p + 2
        rep = tripartite_times_k2_bounds(n, n, n)
        assert rep.exact == 2 * p + 2


def test_tripartite_times_k2_bounds_small():
    assert tripartite_times_k2_bounds(1, 1, 1).lower == 1
    rep = tripartite_times_k2_bounds(2, 2, 2)
    assert (rep.lower, rep.upper) == (2, 2)


def test_tripartite_times_k2_bounds_requires_sorted_sizes():
    with pytest.raises(PreconditionError):
        tripartite_times_k2_bounds(3, 2, 1)


def test_cli_report_helpers():
    rep = knn_report(4)
    assert rep.exact == 2 and LEMMA_3_1 in rep.provenance
    rep = knnn_times_k2_report(8)
    assert rep.exact == 5 and THM_4_7 in rep.provenance
    rep = product_bounds_report(make_complete(5), make_complete(5))
    assert rep.lower == 3 and THM_2_1 in rep.provenance
    rep = product_bounds_report(make_cycle(6), make_complete(2))
    assert THM_2_2 in rep.provenance and THM_3_4 in rep.provenance


# ============================================================
# Report invariants
# ============================================================


def test_bound_report_rejects_inverted_bounds():
    with pytest.raises(PreconditionError):
        BoundReport(3, 2, ())
    with pytest.raises(PreconditionError):
        BoundReport(-1, 0, ())


def test_bound_report_exact_is_where_the_bounds_meet():
    assert BoundReport(2, 2, ()).exact == 2
    assert BoundReport(2, 3, ()).exact is None
    with pytest.raises(AttributeError):
        BoundReport(2, 2, ()).exact = 3


# sha256 over the concatenated bound documents of the grid below, recorded
# before exact became a property derived from lower and upper.
_BOUNDS_SHA256 = "79c5fa87f2ea42ea9a89061d1bfe23a0725aa0898dd11527b8a15d7824a227b3"
_PRODUCT_SPECS = (
    "kn:2 kn:3 kn:5 kn:7 kmn:1,3 kmn:3,3 kmn:3,5 knnn:2 path:2 path:4 cycle:5 cycle:6"
).split()


def test_bound_documents_are_pinned():
    reports = [theta_kmn_times_kpq(*s) for s in itertools.product(range(1, 7), repeat=4)]
    reports += [tripartite_times_k2_bounds(*s)
                for s in itertools.combinations_with_replacement(range(1, 13), 3)]
    reports += [g_times_k2_bounds(make_complete(n)) for n in range(2, 41)]
    for n in range(1, 41):
        reports += [knn_report(n), knnn_times_k2_report(n)]
    graphs = [parse_graph_spec(spec) for spec in _PRODUCT_SPECS]
    reports += [product_bounds_report(g, h) for g in graphs for h in graphs]
    assert len(reports) == 1923
    text = "".join(to_json(bound_report_document(r)) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == _BOUNDS_SHA256


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7))
def test_sandwich_on_complete_pairs(m, n):
    g, h = make_complete(m), make_complete(n)
    assert product_lower_bound(g, h) <= product_upper_bound(g, h)


@given(st.integers(min_value=1, max_value=10))
def test_knn_monotone(n):
    assert theta_knn(n) <= theta_knn(n + 1)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    verts = [VertexLabel(Family.PLAIN, i) for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(verts, picked)


@given(small_graphs(), small_graphs())
def test_product_triangle_free_iff_a_factor_is(g, h):
    # product_lower_bound picks its Euler capacity from the factors alone
    assert (is_triangle_free(g) or is_triangle_free(h)) == is_triangle_free(
        kronecker_product(g, h)
    )
