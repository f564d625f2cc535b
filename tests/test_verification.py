from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronthick import verification
from kronthick.constructions import chen_yin_k4p4p
from kronthick.graphs import (
    Family,
    Graph,
    VertexLabel,
    make_complete,
    make_complete_bipartite,
)
from kronthick.verification import (
    NOT_CERTIFIED,
    OPTIMAL,
    UPPER_BOUND_ONLY,
    _is_image,
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
    foreign = (u[0], u[1])  # same-side edge, not in K_{8,8}
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


def test_part_vertex_outside_the_target_reported():
    target, parts = k88_parts()
    x1, u9 = VertexLabel(Family.X, 1), VertexLabel(Family.U, 9)
    v1 = VertexLabel(Family.V, 1)
    parts[0] = Graph(parts[0].vertices + (x1,), parts[0].edges)  # isolated
    parts[1] = Graph(parts[1].vertices + (u9, x1), parts[1].edges + ((u9, v1),))
    report = verify_decomposition(target, parts)
    assert not report.passed
    assert report.foreign_vertices == (x1, u9)  # sorted: family x before u
    assert report.coverage_extra == ((u9, v1),)
    assert "2 vertices outside the target" in report.summary()
    assert verify_decomposition(*k88_parts()).foreign_vertices == ()


# ============================================================
# Optimality
# ============================================================


def test_optimal_requires_matching_lower():
    target, parts = k88_parts()
    assert verify_decomposition(target, parts, lower=3).optimality == OPTIMAL
    assert verify_decomposition(target, parts, lower=2).optimality == NOT_CERTIFIED
    assert verify_decomposition(target, parts).optimality == NOT_CERTIFIED


def test_uncertified_optimal_claim_fails():
    target, parts = k88_parts()
    empty = Graph((), ())
    claimed = verify_decomposition(target, parts + [empty], lower=3, claim=OPTIMAL)
    assert not claimed.passed and claimed.optimality == NOT_CERTIFIED
    assert claimed.uncertified_claim == OPTIMAL
    assert "claims OPTIMAL, not certified" in claimed.summary()
    # a certified claim, a weaker claim and no claim all pass
    for extra, claim in (([], OPTIMAL), ([empty], UPPER_BOUND_ONLY), ([empty], None)):
        report = verify_decomposition(target, parts + extra, lower=3, claim=claim)
        assert report.passed and report.uncertified_claim is None
    # a report that fails anyway does not name the claim
    parts[0] = Graph(parts[0].vertices, parts[0].edges[1:])
    failed = verify_decomposition(target, parts + [empty], lower=3, claim=OPTIMAL)
    assert failed == verify_decomposition(target, parts + [empty], lower=3)


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


# ============================================================
# Vertex maps between parts
# ============================================================


def _double_fan(n: int) -> list[tuple[int, int]]:
    """A maximal planar graph on 1..n: hubs 1 and 2 joined to each other
    and to the path 3..n; any subset of its edges is planar."""
    return ([(1, 2)] + [(h, i) for h in (1, 2) for i in range(3, n + 1)]
            + [(i, i + 1) for i in range(3, n)])


_K5 = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
_VALID = ["valid", "valid-nonplanar"]
_BOGUS = ["non-injective", "short", "long", "negative", "past-n", "j-is-i", "j-past-i",
          "j-negative", "missing-edge", "nonplanar-target", "nonplanar-source", "foreign"]


@given(st.data())
def test_part_maps_never_change_a_report(data):
    # Part 1 is a relabelled copy of part 0, and part 1's image is, in
    # turn, a valid move from part 0, no move, and each bogus one.  A valid
    # move saves part 1's LR run; anything else costs it, and no report
    # changes.
    nx = pytest.importorskip("networkx")
    n = data.draw(st.integers(min_value=5, max_value=8), label="n")
    fan = _double_fan(n)
    drawn = data.draw(st.lists(st.sampled_from(fan), min_size=1, unique=True), label="edges")
    sigma = dict(zip(range(1, n + 1), data.draw(st.permutations(range(1, n + 1)), label="sigma")))

    def part(edges, layer, relabel=lambda i: i):
        vs = [VertexLabel(Family.PLAIN, relabel(i), layer) for i in range(1, n + 1)]
        return Graph(vs, [(vs[a - 1], vs[b - 1]) for a, b in edges])

    def nx_planar(g):
        h = nx.Graph(g.edges)
        h.add_nodes_from(g.vertices)
        return nx.check_planarity(h)[0]

    for kind in _VALID + ["none"] + _BOGUS:
        base = drawn
        if kind == "valid-nonplanar":
            base = sorted(set(base) | set(_K5))
        elif kind in ("non-injective", "negative", "past-n"):
            # p1_n has no edge, so moving it wrongly keeps every key: only
            # the id check can reject the move
            base = [e for e in base if n not in e] or [(1, 2)]
        src, dst = part(base, 1), part(base, 2, sigma.get)
        target = Graph(src.vertices + dst.vertices, src.edges + dst.edges)
        if kind == "foreign":
            # x_1, outside the target, sorts before every p label: dst's
            # pairs with it key its id first, so the true copy below misses
            a = base[0][0]
            src = Graph(src.vertices + (VertexLabel(Family.X, 1, 1),),
                        src.edges + ((VertexLabel(Family.X, 1, 1), src.vertices[a - 1]),))
            dst = Graph(dst.vertices + (VertexLabel(Family.X, 1, 2),),
                        dst.edges + ((VertexLabel(Family.X, 1, 2),
                                      VertexLabel(Family.PLAIN, sigma[a], 2)),))
        elif kind == "missing-edge":
            gone = data.draw(st.sampled_from(base), label="gone")
            dst = part([e for e in base if e != gone], 2, sigma.get)
        elif kind == "nonplanar-target":
            dst = part(set(base) | set(_K5), 2, sigma.get)
        elif kind == "nonplanar-source":
            src = part(set(base) | set(_K5), 1)
        parts = [src, dst]
        # The verifier's ids: p{l}_a of the target is 2a + l - 3, the
        # vertices outside it follow in order of first appearance, and
        # every id is below the key base.
        base_n = target.num_vertices + sum(g.num_vertices for g in parts)

        def move(ids, kind=kind, base_n=base_n):
            if kind in ("j-is-i", "j-negative"):
                return ids  # part 1 onto itself: only the range of j rejects it
            moved = [2 * sigma.get(x // 2 + 1, x // 2 + 1) - 1 for x in ids]
            if kind == "non-injective":
                moved[n - 1] = moved[0]
            elif kind in ("short", "long"):
                moved = moved[:-1] if kind == "short" else moved + [moved[0]]
            elif kind in ("negative", "past-n"):
                moved[n - 1] = -1 if kind == "negative" else base_n
            return moved

        j = {"j-is-i": 1, "j-past-i": 2, "j-negative": -1}.get(kind, 0)
        images = [None, None if kind == "none" else (j, move)]
        tested = []
        planar = verification.is_planar
        with mock.patch.object(verification, "is_planar",
                               lambda g: tested.append(g) or planar(g)):
            report = verify_decomposition(target, parts, images=images)
        assert len(tested) == (1 if kind in _VALID else 2), kind
        assert report == verify_decomposition(target, parts), kind
        assert list(report.nonplanar_parts) == [
            i for i, g in enumerate(parts) if not nx_planar(g)], kind


@pytest.mark.parametrize("kind", ["repeated", "negative", "equal-to-n", "short", "long"])
def test_is_image_rejects_a_map_that_is_no_bijection(kind):
    # Part j is the path on ids 0-1-2 plus the isolated id 3, part i the
    # same path on 4-5-6, key base 8.  Each bad move touches only id 3's
    # image or the list's length, so the keys still match and only the id
    # check can reject it.
    ids, pairs, n = [0, 1, 2, 3], [(0, 1), (1, 2)], 8
    keys = [4 * n + 5, 5 * n + 6]

    def move(ids):
        return [x + 4 for x in ids]

    assert _is_image(ids, pairs, move, n, keys)

    def bad(ids):
        m = move(ids)
        if kind == "repeated":
            m[3] = m[0]
        elif kind == "negative":
            m[3] = -1
        elif kind == "equal-to-n":
            m[3] = n
        elif kind == "short":
            m.pop()
        else:
            m.append(3)
        return m

    assert not _is_image(ids, pairs, bad, n, keys)
