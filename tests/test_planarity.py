from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronthick.graphs import (
    Family,
    Graph,
    VertexLabel,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    is_triangle_free,
)
from kronthick import oracle, planarity
from kronthick.constructions import (
    kn_times_k2_decomposition,
    knnn_times_k2_decomposition,
)
from kronthick.errors import StructuralViolationError
from kronthick.oracle import exact_thickness
from kronthick.products import times_k2
from kronthick.planarity import (
    _is_plane_rotation,
    euler_max_edges,
    is_planar,
    is_planar_edge_list,
)

# ============================================================
# Euler capacity
# ============================================================


def test_euler_caps():
    assert euler_max_edges(10) == 24
    assert euler_max_edges(10, triangle_free=True) == 16
    assert euler_max_edges(2) == 1
    assert euler_max_edges(1) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_euler_cap_triangle_free_6n(n):
    # v = 6n vertices, triangle-free: 2v - 4 = 12n - 4
    assert euler_max_edges(6 * n, triangle_free=True) == 12 * n - 4


# ============================================================
# Known families
# ============================================================


@pytest.mark.parametrize("n", range(1, 9))
def test_complete_graphs(n):
    assert is_planar(make_complete(n)).planar == (n <= 4)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_complete_bipartite_graphs(m, n):
    assert is_planar(make_complete_bipartite(m, n)).planar == (min(m, n) <= 2)


@pytest.mark.parametrize("n", range(3, 13))
def test_cycles_planar(n):
    assert is_planar(make_cycle(n)).planar


def test_paths_planar():
    assert is_planar(make_path(9)).planar


def test_crown_k44_planar():
    k44 = make_complete_bipartite(4, 4)
    left = [v for v in k44.vertices if v.family == Family.U]
    right = [v for v in k44.vertices if v.family == Family.V]
    matching = list(zip(left, right))
    crown = Graph(k44.vertices, [e for e in k44.edges if e not in matching])
    assert is_planar(crown).planar


def test_k5_minus_edge_planar():
    k5 = make_complete(5)
    assert is_planar(Graph(k5.vertices, k5.edges[1:])).planar


# ============================================================
# Certificates
# ============================================================


def test_planar_verdict_carries_embedding():
    verdict = is_planar(make_cycle(5))
    assert verdict.planar
    emb = verdict.certificate
    assert emb is not None
    # rotation system mentions every edge twice
    darts = sum(len(nbrs) for nbrs in emb.rotation.values())
    assert darts == 2 * make_cycle(5).num_edges


def test_nonplanar_verdict_has_no_embedding():
    verdict = is_planar(make_complete(5))
    assert not verdict.planar
    assert verdict.certificate is None


K4 = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def _int_view(g: Graph, rotation: dict):
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = planarity._neighbor_lists(g.num_vertices, g.pairs)
    return adj, [[index[w] for w in rotation[v]] for v in g.vertices]


def test_checker_rejects_rotation_missing_input_edges():
    # keeps only the edge 01; the rotation agrees with itself but not with K4
    assert not _is_plane_rotation(K4, [[1], [0], [], []])


def test_checker_rejects_asymmetric_rotation():
    assert not _is_plane_rotation([[1], [0]], {0: [1], 1: []})


def test_checker_rejects_rotation_failing_euler():
    # increasing neighbor order is a rotation of K4 on the torus, not the plane
    assert not _is_plane_rotation(K4, K4)


def test_checker_accepts_construction_certificates():
    for part in kn_times_k2_decomposition(16).parts:
        verdict = is_planar(part)
        assert verdict.planar
        assert _is_plane_rotation(*_int_view(part, verdict.certificate.rotation))


def test_wrong_core_rotation_raises(monkeypatch):
    def one_edge_core(n, adj, want_embedding):
        return True, [[1], [0]] + [[] for _ in range(n - 2)]

    monkeypatch.setattr(planarity, "_lr_core", one_edge_core)
    with pytest.raises(StructuralViolationError):
        is_planar(make_complete(4))


def _plus_next_edge_cases():
    for d in (kn_times_k2_decomposition(64), knnn_times_k2_decomposition(9)):
        parts = d.parts
        for i, part in enumerate(parts):
            yield part
            a, b = parts[(i + 1) % len(parts)].edges[0]
            yield Graph(part.vertices + (a, b), part.edges + ((a, b),))


def test_matches_networkx_on_construction_parts():
    # real part sizes: 252 edges (K_64 x K_2), 94-98 edges (K_{9,9,9} x K_2),
    # each also with one edge of the next part added
    nx = pytest.importorskip("networkx")
    for g in _plus_next_edge_cases():
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        verdict = is_planar(g)
        assert verdict.planar == nx.check_planarity(h)[0]
        if verdict.planar:
            rotation = verdict.certificate.rotation
            darts = Counter(frozenset((v, w)) for v, ns in rotation.items() for w in ns)
            assert darts == dict.fromkeys(map(frozenset, g.edges), 2)


def _stacked_triangulation(n: int, rng) -> list[tuple[int, int]]:
    # maximal planar: each new vertex goes into a random face so far
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        faces[i] = (a, b, v)
        faces += [(b, c, v), (a, c, v)]
        edges += [(a, v), (b, v), (c, v)]
    return edges


def _triangulation_cases(n: int):
    # seeded stacked triangulations on n labelled vertices, each as it is
    # (planar) and with two edges removed and one non-edge added (3n - 7 edges)
    rng = random.Random(20261018 + n)
    for _ in range(4):
        edges = _stacked_triangulation(n, rng)
        labels = [VertexLabel(Family.PLAIN, i) for i in range(1, n + 1)]
        rng.shuffle(labels)
        present = set(edges) | {(b, a) for a, b in edges}
        while True:
            extra = tuple(rng.sample(range(n), 2))
            if extra not in present:
                break
        mutated = rng.sample(edges, len(edges) - 2) + [extra]
        for pairs in (edges, mutated):
            yield Graph(labels, [(labels[a], labels[b]) for a, b in pairs])


TRIANGULATION_SIZES = [12, 50, 120, 200, 335]


@pytest.mark.parametrize("n", TRIANGULATION_SIZES)
def test_matches_networkx_on_triangulations(n):
    # stacked triangulations up to 999 edges, and their mutants: 3n - 7 edges,
    # under the Euler count, so the LR core itself has to find the obstruction
    nx = pytest.importorskip("networkx")
    for g in _triangulation_cases(n):
        verdict = is_planar(g)
        assert verdict.planar == nx.check_planarity(nx.Graph(g.edges))[0]
        if verdict.planar:
            rotation = verdict.certificate.rotation
            darts = Counter(frozenset((v, w)) for v, ns in rotation.items() for w in ns)
            assert darts == dict.fromkeys(map(frozenset, g.edges), 2)


def _rotation_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        verdict = is_planar(g)
        if verdict.planar:
            index = {v: i for i, v in enumerate(g.vertices)}
            rotation = verdict.certificate.rotation
            text = ";".join(",".join(str(index[w]) for w in rotation[v]) for v in g.vertices)
        else:
            text = "non-planar"
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def test_rotations_pinned():
    # the rotation is fixed by the DFS order of all three LR passes, so any
    # change to the order in which edges are visited or sorted shows here
    graphs = [
        *kn_times_k2_decomposition(64).parts,
        *knnn_times_k2_decomposition(41).parts,
        *(g for n in TRIANGULATION_SIZES for g in _triangulation_cases(n)),
    ]
    assert _rotation_digest(graphs) == (
        "2349d9b90e5d59eb60a5d11e07993ebae25575a0f4348e27b305ffb09e05f789"
    )


def _oracle_lr_inputs(monkeypatch, g: Graph) -> list:
    # every (n, edges) that exact_thickness(g) hands the boolean LR test
    seen = []

    def recording(n, edges):
        seen.append((n, list(edges)))
        return is_planar_edge_list(n, edges)

    with monkeypatch.context() as m:
        m.setattr(oracle, "is_planar_edge_list", recording)
        assert exact_thickness(g).value == 2
    return seen


def _stacked_quadrangulation(n: int, rng) -> tuple[list[tuple[int, int]], list[int]]:
    # maximal planar bipartite (2n - 4 edges): each new vertex goes into a
    # random quadrilateral face and joins two opposite corners of it
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    faces = [(0, 1, 2, 3), (0, 1, 2, 3)]
    colour = [0, 1, 0, 1]
    for x in range(4, n):
        i = rng.randrange(len(faces))
        k = rng.randrange(2)
        a, b, c, d = faces[i][k:] + faces[i][:k]
        faces[i] = (a, b, c, x)
        faces.append((a, x, c, d))
        edges += [(a, x), (c, x)]
        colour.append(1 - colour[a])
    return edges, colour


def _mutants(base, n, rng, extra_ok, cut, extra):
    # base with `cut` edges removed and up to `extra` new edges that extra_ok allows
    present = set(base) | {(b, a) for a, b in base}
    edges = rng.sample(base, len(base) - cut)
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        if (a, b) not in present and extra_ok(a, b):
            present |= {(a, b), (b, a)}
            edges.append((a, b))
    return edges


def _search_range_inputs():
    # the oracle's own part sizes: bipartite graphs on 12-20 vertices with
    # 2n - 6 to 2n - 3 edges, and general graphs on 10-16 vertices with
    # 3n - 9 to 3n - 6 edges; each is a random graph of that size or a
    # maximal planar graph with a few edges moved
    rng = random.Random(20261019)
    for _ in range(150):
        n = rng.randint(12, 20)
        base, colour = _stacked_quadrangulation(n, rng)
        cut = rng.randint(0, 2)
        yield "bipartite", n, _mutants(
            base, n, rng, lambda a, b: colour[a] != colour[b], cut, cut + 1
        )
        left = rng.randint(n // 2 - 2, n // 2)
        pairs = [(a, b) for a in range(left) for b in range(left, n)]
        yield "bipartite", n, rng.sample(pairs, rng.randint(2 * n - 6, 2 * n - 3))
    for _ in range(150):
        n = rng.randint(10, 16)
        cut = rng.randint(0, 3)
        yield "general", n, _mutants(
            _stacked_triangulation(n, rng), n, rng, lambda a, b: True, cut, cut
        )
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        yield "general", n, rng.sample(pairs, rng.randint(3 * n - 9, 3 * n - 6))


def test_edge_lists_match_networkx_in_the_search_range(monkeypatch):
    nx = pytest.importorskip("networkx")
    oracle_targets = {
        "K6xK2": times_k2(make_complete(6)),
        "K6,6": make_complete_bipartite(6, 6),
    }
    cases = [
        (source, n, edges)
        for source, g in oracle_targets.items()
        for n, edges in _oracle_lr_inputs(monkeypatch, g)
    ]
    cases += _search_range_inputs()
    verdicts = Counter()
    for source, n, edges in cases:
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        verdict = is_planar_edge_list(n, edges)
        assert verdict == nx.check_planarity(h)[0], (n, edges)
        verdicts[source, verdict] += 1
    # every source gives both verdicts
    sources = ("K6xK2", "K6,6", "bipartite", "general")
    assert all(verdicts[s, True] and verdicts[s, False] for s in sources), verdicts


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_inputs_stay_iterative():
    # a 20,000-vertex ladder (DFS depth 20,000) and a 20,000-cycle with
    # K_{3,3} hung off its far side, run with only 100 frames of headroom
    k = 10_000
    ladder = [(i, i + 1) for i in range(k - 1)]
    ladder += [(k + i, k + i + 1) for i in range(k - 1)]
    ladder += [(i, k + i) for i in range(k)]
    c = 20_000
    joined = [(i, i + 1) for i in range(c - 1)] + [(0, c - 1), (c // 2, c)]
    joined += [(c + i, c + 3 + j) for i in range(3) for j in range(3)]
    cases = []
    for n, pairs, planar in ((2 * k, ladder, True), (c + 6, joined, False)):
        labels = [VertexLabel(Family.PLAIN, i) for i in range(1, n + 1)]
        g = Graph(labels, [(labels[a], labels[b]) for a, b in pairs])
        cases.append((g, n, pairs, planar))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        verdicts = [
            (is_planar(g).planar, is_planar_edge_list(n, pairs), planar)
            for g, n, pairs, planar in cases
        ]
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == [(True, True, True), (False, False, False)]


def test_edge_list_matches_label_interface():
    assert is_planar_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k33 = [(i, 3 + j) for i in range(3) for j in range(3)]
    assert not is_planar_edge_list(6, k33)


# ============================================================
# Properties
# ============================================================


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    verts = [VertexLabel(Family.PLAIN, i) for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(verts, picked)


@given(small_graphs())
def test_planar_graphs_respect_euler(g: Graph):
    if is_planar(g).planar and g.num_vertices >= 3:
        assert g.num_edges <= euler_max_edges(g.num_vertices, is_triangle_free(g))


@given(small_graphs())
def test_verdict_deterministic(g: Graph):
    assert is_planar(g).planar == is_planar(g).planar


@given(small_graphs())
def test_matches_networkx(g: Graph):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(v.name for v in g.vertices)
    h.add_edges_from((a.name, b.name) for a, b in g.edges)
    expected, _ = nx.check_planarity(h)
    assert is_planar(g).planar == expected


@given(small_graphs())
def test_subgraph_of_planar_is_planar(g: Graph):
    if is_planar(g).planar and g.num_edges:
        sub = Graph(g.vertices, g.edges[1:])
        assert is_planar(sub).planar
