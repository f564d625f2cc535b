from __future__ import annotations

import hashlib
import importlib.resources
import time
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronthick import verification
from kronthick.bounds import (
    LEMMA_3_2,
    LEMMA_4_2,
    LEMMA_4_4,
    LEMMA_4_6,
    THM_3_3,
    theta_kn_times_k2,
    theta_knn,
    theta_knnn_times_k2,
    thickness_lower_bound,
)
from kronthick.constructions import (
    _BLOCKS_LAYER1,
    _BLOCKS_LAYER2,
    _UV,
    _XYZ,
    Decomposition,
    _chen_yin_part_edges,
    _place,
    _positions,
    _seed_part_pairs,
    chen_yin_k4p4p,
    kn_times_k2_decomposition,
    knnn_times_k2_decomposition,
    orbit_images,
    validate_seed,
)
from kronthick.errors import (
    InvalidSizeError,
    SeedInvalidError,
    SeedRequiredError,
)
from kronthick.graphs import (
    Family,
    Graph,
    ProductVertex,
    VertexLabel,
    induced_subgraph,
    make_complete,
    make_complete_bipartite,
    make_complete_tripartite,
)
from kronthick.products import times_k2
from kronthick.serialize import (
    decomposition_document,
    decomposition_from_document,
    load_json,
    seed_from_document,
)
from kronthick.verification import OPTIMAL, verify_decomposition


def _nx_graph(g: Graph):
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges)
    h.add_nodes_from(g.vertices)
    return nx, h


def bundled_seed():
    path = (
        importlib.resources.files("kronthick")
        .joinpath("data")
        .joinpath("seed_k7_7.json")
    )
    return seed_from_document(load_json(str(path)))


# ============================================================
# Chen-Yin K_{4p,4p}
# ============================================================


@pytest.mark.parametrize("p", [1, 2, 3])
def test_chen_yin_verifies(p):
    d = chen_yin_k4p4p(p)
    assert len(d.parts) == p + 1
    assert d.target == make_complete_bipartite(4 * p, 4 * p)
    report = verify_decomposition(d.target, d.parts, lower=theta_knn(4 * p))
    assert report.passed
    assert report.optimality == OPTIMAL


def test_chen_yin_p1_part_sizes():
    d = chen_yin_k4p4p(1)
    assert [g.num_edges for g in d.parts] == [12, 4]


def test_chen_yin_p2_part_sizes():
    d = chen_yin_k4p4p(2)
    assert [g.num_edges for g in d.parts] == [28, 28, 8]
    assert sum(g.num_edges for g in d.parts) == 64


def test_chen_yin_final_part_is_the_matching():
    for p in (1, 2, 3):
        last = chen_yin_k4p4p(p).parts[-1]
        assert last.num_edges == 4 * p
        for a, b in last.edges:
            assert a.index == b.index
            assert {a.family, b.family} == {Family.U, Family.V}


def test_chen_yin_rejects_p0():
    with pytest.raises(InvalidSizeError):
        chen_yin_k4p4p(0)


# ============================================================
# K_n x K_2
# ============================================================


@pytest.mark.parametrize("n", range(2, 17))
def test_kn_times_k2_optimal(n):
    d = kn_times_k2_decomposition(n)
    assert len(d.parts) == theta_kn_times_k2(n)
    report = verify_decomposition(d.target, d.parts, lower=len(d.parts))
    assert report.passed


def test_kn_times_k2_n2_single_part():
    assert len(kn_times_k2_decomposition(2).parts) == 1


def test_kn_times_k2_n6_part_sizes():
    d = kn_times_k2_decomposition(6)
    assert sorted(g.num_edges for g in d.parts) == [12, 18]
    assert sum(g.num_edges for g in d.parts) == 30


def test_kn_times_k2_n5_two_parts():
    d = kn_times_k2_decomposition(5)
    assert len(d.parts) == 2
    assert verify_decomposition(d.target, d.parts).passed


def test_kn_times_k2_rejects_n1():
    with pytest.raises(InvalidSizeError):
        kn_times_k2_decomposition(1)


def test_odd_case_restricts_even_case():
    even = kn_times_k2_decomposition(6)
    odd = [induced_subgraph(g, lambda v: v.index <= 5) for g in even.parts]
    assert verify_decomposition(times_k2(make_complete(5)), odd).passed
    built = kn_times_k2_decomposition(5).parts
    assert [g.edges for g in odd] == [g.edges for g in built]


# ============================================================
# Placing index pairs on label blocks
# ============================================================


def test_three_block_copies_are_vertex_disjoint():
    pairs = _chen_yin_part_edges(2, 1)
    one = _place(make_complete_bipartite(8, 8), _positions((Family.U, Family.V), 8, False),
                 {_UV: pairs})
    target = times_k2(make_complete_tripartite(8, 8, 8))
    for blocks in (_BLOCKS_LAYER1, _BLOCKS_LAYER2):
        three = _place(target, _positions(_XYZ, 8, True), dict.fromkeys(blocks, pairs))
        assert three.num_vertices == 3 * one.num_vertices
        assert three.num_edges == 3 * one.num_edges
        classes = {frozenset(b) for b in blocks}
        for a, b in three.edges:
            assert frozenset({(a.family, a.layer), (b.family, b.layer)}) in classes


@pytest.mark.parametrize(
    "target, at, n",
    [
        (times_k2(make_complete(7)), _positions((Family.PLAIN,), 7, True), 7),
        (make_complete_bipartite(8, 8), _positions((Family.U, Family.V), 8, False), 8),
        (times_k2(make_complete_tripartite(5, 5, 5)), _positions(_XYZ, 5, True), 5),
    ],
    ids=["crown", "kmm", "tripartite"],
)
def test_positions_match_the_target_order(target, at, n):
    placed = {target.vertices[off + step * a]: (f, a, layer)
              for (f, layer), (off, step) in at.items() for a in range(1, n + 1)}
    assert len(placed) == target.num_vertices
    assert all(tuple(v) == want for v, want in placed.items())


# Every builder at sizes covering each residue mod 4; the knnn_x_k2 sizes
# 10 and 11 need a seed for p = 2, which does not ship.
_PLACED = (
    [("kn_x_k2", n) for n in range(2, 14)]
    + [("knn", p) for p in range(1, 5)]
    + [("knnn_x_k2", n) for n in range(4, 14) if n not in (10, 11)]
)


def _placed_decomposition(family, size):
    if family == "kn_x_k2":
        return kn_times_k2_decomposition(size)
    if family == "knn":
        return chen_yin_k4p4p(size)
    return knnn_times_k2_decomposition(size, seed_provider=lambda p: bundled_seed())


def test_parts_take_their_vertices_from_the_target():
    for family, size in _PLACED:
        d = _placed_decomposition(family, size)
        at = {v: k for k, v in enumerate(d.target.vertices)}
        for part in d.parts:
            ks = [at[v] for v in part.vertices]
            assert ks == sorted(set(ks)), (family, size)
            assert all(d.target.vertices[k] is v for k, v in zip(ks, part.vertices))


@contextmanager
def _lr_tested():
    """Records the parts that verification's LR test sees, in order."""
    tested = []
    planar = verification.is_planar
    with mock.patch.object(verification, "is_planar", lambda g: tested.append(g) or planar(g)):
        yield tested


def test_every_recorded_image_map_is_accepted():
    maps = 0
    for family, size in _PLACED:
        d = _placed_decomposition(family, size)
        images = orbit_images(d)
        # as verify PATH checks it: the OPTIMAL claim against the lower bound
        with _lr_tested() as tested:
            report = verify_decomposition(d.target, d.parts, lower=thickness_lower_bound(d.target),
                                          images=images, claim=d.guarantee)
        assert report.passed and report.optimality == OPTIMAL, (family, size)
        # every part with a move takes its source's verdict
        assert [id(g) for g in tested] == [
            id(g) for g, image in zip(d.parts, images) if image is None], (family, size)
        maps += len(d.parts) - len(tested)
    assert maps == 35  # pinned, so a claim that stops yielding a map shows here


# sha256 over every image map of these builds, one line "family size i j pi"
# per map, pi part j's moved vertices as part i's positions.  The first 810
# maps were recorded from the maps the builders stored on the decomposition
# before orbit_images derived them; the two LEMMA_4_6 flips at n = 6 came
# after: 812 maps over 104 decompositions.
_ORBIT_CASES = (
    [("kn_x_k2", n) for n in range(2, 70)]
    + [("knn", p) for p in range(1, 12)]
    + [("knnn_x_k2", n) for n in range(1, 46) if n % 4 in (0, 1)]
    + [("knnn_x_k2", 6), ("knnn_x_k2", 7)]
)
_ORBIT_SHA256 = "3051f86bc302f4559e02ce9262c1bae96af5e4b6d72556db7435e71be08422a8"


def test_orbit_images_reproduce_the_builders_maps():
    digest, maps = hashlib.sha256(), 0
    for family, size in _ORBIT_CASES:
        d = _placed_decomposition(family, size)
        at = {v: k for k, v in enumerate(d.target.vertices)}
        for i, image in enumerate(orbit_images(d)):
            if image is not None:
                j, move = image
                position = {at[v]: k for k, v in enumerate(d.parts[i].vertices)}
                pi = [position.get(x, -1) for x in move([at[v] for v in d.parts[j].vertices])]
                digest.update(f"{family} {size} {i} {j} {' '.join(map(str, pi))}\n".encode())
                maps += 1
    assert (len(_ORBIT_CASES), maps) == (104, 812)
    assert digest.hexdigest() == _ORBIT_SHA256


def test_orbit_images_cost_follows_the_parts_not_n():
    # LEMMA_4_4 at n = 20001 (p = 5000) claims 4999 block shifts of part 0
    # and 5000 layer flips; with 5000 one-edge parts the flips have no part
    # to land on, and each shift costs two vertices, not n.
    n = 20001
    vs = tuple(VertexLabel(f, a, layer) for f in _XYZ for a in range(1, n + 1) for layer in (1, 2))
    parts = [Graph._trusted((VertexLabel(Family.X, a, 1), VertexLabel(Family.Y, a, 2)), ((0, 1),))
             for a in range(1, 20000, 4)]
    d = Decomposition(Graph._trusted(vs, ()), parts, OPTIMAL, LEMMA_4_4)
    start = time.perf_counter()
    images = orbit_images(d)
    with _lr_tested() as tested:
        verify_decomposition(d.target, d.parts, images=images)
    assert time.perf_counter() - start < 1
    assert images[0] is None and all(j == 0 for j, _ in images[1:])
    assert tested == [parts[0]]


_PROVENANCES = (THM_3_3, LEMMA_3_2, LEMMA_4_2, LEMMA_4_4, LEMMA_4_6)
_MUTATED = (
    [("kn_x_k2", n) for n in (5, 8, 11, 12)]
    + [("knn", 2), ("knn", 3)]
    + [("knnn_x_k2", n) for n in (4, 7, 9)]
)
_MUTATIONS = ("move", "drop", "add", "swap", "provenance", "foreign")


def _mutated(d, kind, data):
    parts = list(d.parts)
    a, b = data.draw(st.permutations(range(len(parts))), label="parts")[:2]
    if kind == "swap":
        parts[a], parts[b] = parts[b], parts[a]
    elif kind == "provenance":
        return replace(d, provenance=data.draw(st.sampled_from(
            [tag for tag in _PROVENANCES if tag != d.provenance]), label="provenance"))
    elif kind == "foreign":
        # Index n+1 on the classes of a part's first family, on that part
        # or on every part, where each relabelling carries them onto each
        # other; or a pair vertex, whose index is a label.
        f, _, layer = parts[a].vertices[0]
        n = max(v.index for v in d.target.vertices)
        extra = {VertexLabel(f, n + 1, layer and l or None) for l in (1, 2)}
        form = data.draw(st.sampled_from(["one", "every", "pair"]), label="form")
        if form == "pair":
            extra = {ProductVertex(*d.target.vertices[:2])}
        for k in range(len(parts)) if form == "every" else [a]:
            parts[k] = Graph(parts[k].vertices + tuple(extra), parts[k].edges)
    else:
        source = parts[a] if kind != "add" else d.target
        e = data.draw(st.sampled_from(source.edges), label="edge")
        if kind != "add":
            parts[a] = Graph(parts[a].vertices, [x for x in parts[a].edges if x != e])
        if kind != "drop":
            parts[b] = Graph(parts[b].vertices + e, parts[b].edges + (e,))
    return replace(d, parts=parts)


@given(st.sampled_from(_MUTATED), st.sampled_from(_MUTATIONS), st.data())
def test_orbit_images_never_change_a_report(case, kind, data):
    d = _mutated(_placed_decomposition(*case), kind, data)
    d = decomposition_from_document(decomposition_document(d))
    lower = thickness_lower_bound(d.target)
    images = orbit_images(d)
    with _lr_tested() as tested:
        report = verify_decomposition(d.target, d.parts, lower=lower, images=images,
                                      claim=d.guarantee)
    assert report == verify_decomposition(d.target, d.parts, lower=lower, claim=d.guarantee)
    nx = pytest.importorskip("networkx")
    assert list(report.nonplanar_parts) == [
        i for i, g in enumerate(d.parts) if not nx.check_planarity(_nx_graph(g)[1])[0]]
    # every part the verifier did not LR-test is isomorphic to its source
    tested = set(map(id, tested))
    for i, image in enumerate(images):
        if image is not None and id(d.parts[i]) not in tested:
            assert nx.is_isomorphic(nx.Graph(d.parts[i].edges), nx.Graph(d.parts[image[0]].edges))


def _seed_with_extra_vertex(extra):
    seed = bundled_seed()
    first = seed.parts[0]
    part = Graph(first.vertices + (extra,), first.edges)
    return replace(seed, parts=(part,) + seed.parts[1:])


def test_seed_part_with_foreign_vertex_rejected():
    seed = _seed_with_extra_vertex(VertexLabel(Family.X, 1))
    with pytest.raises(SeedInvalidError):
        knnn_times_k2_decomposition(7, lambda p: seed)


def test_valid_seed_large_parts_span_every_vertex():
    # (p+1)(4m-4) = m*m - 1 edges fill the large parts to the bipartite
    # planar limit 2v-4, so each spans all 2m vertices of K_{m,m}: the
    # pairs alone place every seed vertex, isolated or not.
    seed = bundled_seed()
    validate_seed(seed)
    for part in seed.parts[:-1]:
        pairs = _seed_part_pairs(part)
        assert part.num_edges == 4 * 7 - 4
        assert {a for a, _ in pairs} == {b for _, b in pairs} == set(range(1, 8))
    # One edge fewer leaves a part below the limit, and the seed no longer
    # covers K_{7,7}; so does isolating u_7 in a part that still lists it.
    first = seed.parts[0]
    u7 = VertexLabel(Family.U, 7)
    for part in (_without_first_edge(first),
                 Graph(first.vertices, [e for e in first.edges if u7 not in e])):
        with pytest.raises(SeedInvalidError, match="missing"):
            validate_seed(replace(seed, parts=(part,) + seed.parts[1:]))


@pytest.mark.parametrize(
    "build,n,built",
    [
        (kn_times_k2_decomposition, 16, 7),
        (kn_times_k2_decomposition, 15, 7),
        (knnn_times_k2_decomposition, 8, 8),
        (knnn_times_k2_decomposition, 9, 8),
    ],
)
def test_each_part_is_built_once(monkeypatch, build, n, built):
    graphs = []
    trusted = Graph._trusted

    def counting_trusted(vertices, pairs):
        graphs.append(trusted(vertices, pairs))
        return graphs[-1]

    monkeypatch.setattr(Graph, "_trusted", counting_trusted)
    d = build(n)
    # The returned parts and target, plus the target's two factors.
    assert len(graphs) == built == len(d.parts) + 3


# ============================================================
# K_{n,n,n} x K_2, n = 4p
# ============================================================


@pytest.mark.parametrize("p", [1, 2, 3])
def test_n0mod4_verifies(p):
    n = 4 * p
    d = knnn_times_k2_decomposition(4 * p)
    assert len(d.parts) == 2 * p + 1 == theta_knnn_times_k2(n)
    report = verify_decomposition(d.target, d.parts, lower=len(d.parts))
    assert report.passed
    assert sum(g.num_edges for g in d.parts) == 6 * n * n


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_n0mod4_final_part_is_disjoint_six_cycles(p):
    nx, h = _nx_graph(knnn_times_k2_decomposition(4 * p).parts[-1])
    comps = list(nx.connected_components(h))
    assert len(comps) == 4 * p
    for c in comps:
        assert len(c) == 6 and h.subgraph(c).number_of_edges() == 6
    assert all(d == 2 for _, d in h.degree)


# ============================================================
# K_{n,n,n} x K_2, n = 4p+1
# ============================================================


@pytest.mark.parametrize("p", [2, 3])
def test_n1mod4_verifies(p):
    n = 4 * p + 1
    d = knnn_times_k2_decomposition(4 * p + 1)
    assert len(d.parts) == 2 * p + 1 == theta_knnn_times_k2(n)
    report = verify_decomposition(d.target, d.parts, lower=len(d.parts))
    assert report.passed


# ============================================================
# Fixtures (drawn decompositions for n = 1, 3, 5)
# ============================================================


@pytest.mark.parametrize(
    "n,parts,edges", [(1, 1, 6), (3, 2, 54), (5, 3, 150)]
)
def test_fixtures_verify(n, parts, edges):
    d = knnn_times_k2_decomposition(n)
    assert len(d.parts) == parts == theta_knnn_times_k2(n)
    assert sum(g.num_edges for g in d.parts) == edges
    assert verify_decomposition(d.target, d.parts, lower=parts).passed
    assert d.guarantee == OPTIMAL


def test_fixture_n1_is_a_six_cycle():
    d = knnn_times_k2_decomposition(1)
    part = d.parts[0]
    assert part.num_vertices == 6 and part.num_edges == 6
    nx, h = _nx_graph(part)
    assert nx.is_connected(h)


# ============================================================
# Seeded assembly (n = 4p+3) and restriction (n = 4p+2)
# ============================================================


def test_bundled_seed_validates():
    seed = bundled_seed()
    assert seed.target == make_complete_bipartite(7, 7)
    assert validate_seed(seed) == 1


def _k33_seed():
    """A two-part seed of K_{3,3}: the shape of p = 0, which no lemma takes."""
    target = make_complete_bipartite(3, 3)
    single = target.edges[0]
    rest = Graph(target.vertices, target.edges[1:])
    return Decomposition(target, (rest, Graph(single, [single])), "", "")


def _without_first_edge(g: Graph) -> Graph:
    return Graph(g.vertices, g.edges[1:])


def _target_missing_an_edge(seed):
    """Parts and target both lose one edge: it verifies, but not as K_{7,7}."""
    gone = seed.parts[0].edges[0]
    target = Graph(seed.target.vertices, [e for e in seed.target.edges if e != gone])
    first = _without_first_edge(seed.parts[0])
    return replace(seed, target=target, parts=(first,) + seed.parts[1:])


def _split_second_part(seed):
    first, second, last = seed.parts
    half = second.num_edges // 2
    halves = (Graph(second.vertices, second.edges[:half]),
              Graph(second.vertices, second.edges[half:]))
    return replace(seed, parts=(first, *halves, last))


def _move_edge_to_last_part(seed):
    first, second, last = seed.parts
    moved = second.edges[0]
    last = Graph(last.vertices + moved, last.edges + (moved,))
    return replace(seed, parts=(first, _without_first_edge(second), last))


@pytest.mark.parametrize(
    "defect",
    [
        lambda s: replace(s, target=times_k2(make_complete(7))),
        _target_missing_an_edge,
        lambda s: _k33_seed(),
        lambda s: replace(s, parts=s.parts[:-1]),
        _split_second_part,
        _move_edge_to_last_part,
        lambda s: replace(s, parts=(_without_first_edge(s.parts[0]),) + s.parts[1:]),
    ],
    ids=["wrong-target", "target-not-complete", "p0", "p+1-parts", "p+3-parts",
         "last-part-two-edges", "missing-edge"],
)
def test_validate_seed_rejects_defect(defect):
    with pytest.raises(SeedInvalidError):
        validate_seed(defect(bundled_seed()))


def test_lemma46_assembles_four_parts():
    d = knnn_times_k2_decomposition(7, lambda p: bundled_seed())
    assert len(d.parts) == 4 == theta_knnn_times_k2(7)
    assert d.target == times_k2(make_complete_tripartite(7, 7, 7))
    assert verify_decomposition(d.target, d.parts, lower=4).passed


def test_lemma46_relocated_edges_appear_once():
    d = knnn_times_k2_decomposition(7, lambda p: bundled_seed())
    total = sum(g.num_edges for g in d.parts)
    distinct = len(set().union(*(g.edges for g in d.parts)))
    assert total == distinct == d.target.num_edges


def test_restriction_to_n6():
    d7 = knnn_times_k2_decomposition(7, lambda p: bundled_seed())
    d6 = knnn_times_k2_decomposition(6, seed_provider=lambda p: bundled_seed())
    assert d6.parts == tuple(induced_subgraph(g, lambda v: v.index <= 6) for g in d7.parts)
    assert len(d6.parts) == 4 == theta_knnn_times_k2(6)
    assert d6.target == times_k2(make_complete_tripartite(6, 6, 6))
    assert (d6.guarantee, d6.provenance, d6.figure) == (OPTIMAL, d7.provenance, None)
    assert verify_decomposition(d6.target, d6.parts, lower=4).passed


def test_seed_with_wrong_shape_rejected():
    seed = bundled_seed()
    broken = replace(seed, parts=seed.parts[:-1])
    with pytest.raises(SeedInvalidError):
        validate_seed(broken)


# ============================================================
# Layer symmetry of the tripartite constructions
# ============================================================


def _layer_swap(g: Graph) -> Graph:
    swap = {v: VertexLabel(v.family, v.index, 3 - v.layer) for v in g.vertices}
    return Graph(swap.values(), [(swap[a], swap[b]) for a, b in g.edges])


@pytest.mark.parametrize(
    "build",
    [
        lambda: knnn_times_k2_decomposition(4),
        lambda: knnn_times_k2_decomposition(8),
        lambda: knnn_times_k2_decomposition(9),
        lambda: knnn_times_k2_decomposition(13),
        lambda: knnn_times_k2_decomposition(7, lambda p: bundled_seed()),
        lambda: knnn_times_k2_decomposition(6, lambda p: bundled_seed()),
    ],
    ids=["n0mod4-p1", "n0mod4-p2", "n1mod4-p2", "n1mod4-p3", "lemma46-seed",
         "n2mod4-induced"],
)
def test_layer2_parts_are_layer_swaps_of_layer1(build):
    d = build()
    half = len(d.parts) // 2
    for g, h in zip(d.parts[:half], d.parts[half:2 * half]):
        assert g != h
        assert _layer_swap(g) == h
    # The n = 4p and 4p+1 constructions end in one swap-invariant part.
    for g in d.parts[2 * half:]:
        assert _layer_swap(g) == g


# ============================================================
# Dispatcher
# ============================================================


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 12, 13])
def test_dispatcher_covers_constructive_sizes(n):
    d = knnn_times_k2_decomposition(n)
    assert len(d.parts) == theta_knnn_times_k2(n)
    assert verify_decomposition(d.target, d.parts, lower=len(d.parts)).passed


def test_dispatcher_n2_restricts_the_n3_fixture():
    d = knnn_times_k2_decomposition(2)
    assert len(d.parts) == 2 == theta_knnn_times_k2(2)
    assert d.target == times_k2(make_complete_tripartite(2, 2, 2))
    assert verify_decomposition(d.target, d.parts, lower=2).passed


@pytest.mark.parametrize("n", [0, -2])
def test_dispatcher_rejects_n_below_1(n):
    # the family's only size guard: each per-case step trusts its n
    with pytest.raises(InvalidSizeError):
        knnn_times_k2_decomposition(n)


@pytest.mark.parametrize("n", [6, 7, 10, 11])
def test_dispatcher_requires_seed_for_2_3_mod_4(n):
    with pytest.raises(SeedRequiredError):
        knnn_times_k2_decomposition(n)


def test_dispatcher_uses_provided_seed():
    d = knnn_times_k2_decomposition(7, seed_provider=lambda p: bundled_seed())
    assert len(d.parts) == 4
    assert verify_decomposition(d.target, d.parts, lower=4).passed


# ============================================================
# The decomposition record
# ============================================================


def test_decomposition_record_shape():
    d = chen_yin_k4p4p(1)
    assert isinstance(d, Decomposition)
    assert isinstance(d.parts, tuple)
    assert d.provenance
