"""Explicit planar decompositions of the product families.

Every builder returns a Decomposition whose parts partition the target's
edge set; nothing here is trusted by fiat.  The verification module
re-derives coverage, disjointness and per-part planarity from scratch, and
the test suite certifies optimality against the bounds module.

Vertex naming convention: a vertex x^1_i (family x, layer 1, index i) is
VertexLabel(Family.X, i, 1).  Each part is built once, as one Graph, from
a block map: each (family, layer) block it uses maps to index pairs (a, b),
each the edge v_a u_b of a bipartite part.  K_{4p,4p} uses the one block
of the layerless v/u families, K_n x K_2 the one block with v on layer 1
and u on layer 2, and K_{n,n,n} x K_2 copies a part three times around the
x -> y -> z family cycle by mapping three blocks to the same pairs.  Each
builder makes its target first, and a block index goes straight to its
target position by the arithmetic _positions names, so a part is the
target's own labels at the positions its edges touch: no label is made or
sorted, and the Graph gets the sorted position pairs.  Every edge of
K_{n,n,n} x K_2 joins two families on opposite layers, so it lies in
exactly one of the six blocks, and a builder that adds or deletes edges
edits the pairs of named blocks.  The tripartite builders differ only in
their h main parts and closing parts: part k maps the layer-1 blocks, and
part h+k is its layer flip, the same map with every block swapped for its
other-layer partner.  Odd K_n x K_2 keeps the pairs of n+1 that stay on
indices <= n.  Only K_{n,n,n} x K_2, n = 2 (mod 4), is built larger and
induced on the indices <= n.

Most parts are relabelled copies of an earlier part, under an index-block
swap or shift or a layer flip.  orbit_images reads which from a
decomposition's provenance and sizes, as moves of target vertex ids that
the verifier checks before it skips a part's planarity test, so a parsed
document gets the same moves as a fresh build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from operator import floordiv, mod

from .bounds import (
    LEMMA_3_2,
    LEMMA_4_2,
    LEMMA_4_4,
    LEMMA_4_6,
    THM_3_3,
    theta_knnn_times_k2,
)
from .errors import (
    ConstructionConflictError,
    FixtureIntegrityError,
    InvalidSizeError,
    SeedInvalidError,
    SeedMismatchError,
    SeedRequiredError,
)
from .graphs import (
    Family,
    Graph,
    induced_subgraph,
    make_complete,
    make_complete_bipartite,
    make_complete_tripartite,
)
from .planarity import is_planar
from .products import times_k2
from .verification import OPTIMAL, verify_decomposition

__all__ = [
    "Decomposition",
    "chen_yin_k4p4p",
    "kn_times_k2_decomposition",
    "knnn_times_k2_decomposition",
    "orbit_images",
]


# ============================================================
# Result types
# ============================================================


@dataclass(frozen=True)
class Decomposition:
    """An edge-partition of `target` into planar parts.

    guarantee is OPTIMAL when the part count provably meets the thickness
    of the target, UPPER_BOUND_ONLY otherwise.  provenance names the
    formula/construction tag that produced it; figure optionally cites a
    drawn source for transcribed fixtures.
    """

    target: Graph
    parts: tuple[Graph, ...]
    guarantee: str
    provenance: str
    figure: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))


# ============================================================
# Placing index pairs on target positions
# ============================================================

# Every part maps blocks to index pairs (a, b), each the edge v_a u_b of a
# bipartite part.  A block ((family, layer), (family, layer)) takes v_a to
# its first class and u_b to its second; layer 0 is a layerless class.
_UV = ((Family.V, 0), (Family.U, 0))
_CROWN = ((Family.PLAIN, 1), (Family.PLAIN, 2))
# The two three-block layouts of the tripartite constructions: vertex-
# disjoint copies around the x -> y -> z family cycle, so planarity of the
# bipartite part is inherited.  On all six blocks the pair (i, i) is the
# 6-cycle x1_i y2_i z1_i x2_i y1_i z2_i.
_BLOCKS_LAYER1 = (
    ((Family.X, 1), (Family.Y, 2)),
    ((Family.Y, 1), (Family.Z, 2)),
    ((Family.Z, 1), (Family.X, 2)),
)
_BLOCKS_LAYER2 = (
    ((Family.X, 2), (Family.Y, 1)),
    ((Family.Y, 2), (Family.Z, 1)),
    ((Family.Z, 2), (Family.X, 1)),
)
_SIX_BLOCKS = _BLOCKS_LAYER1 + _BLOCKS_LAYER2
_XYZ = (Family.X, Family.Y, Family.Z)
_SWAP = dict(zip(_SIX_BLOCKS, _BLOCKS_LAYER2 + _BLOCKS_LAYER1))


def _swapped(part: dict) -> dict:
    """The block map with every block moved to its layer-swap partner."""
    return {_SWAP[blk]: pairs for blk, pairs in part.items()}


def _positions(families, n: int, layered: bool) -> dict:
    """Where the target puts each class: (family, layer) -> (offset, step),
    index a at position offset + step * a.

    The targets list each family's indices 1..n in turn, and a K_2
    product lists each index on layer 1, then layer 2.  So the crown label
    p{l}_i sits at 2(i-1) + (l-1); K_{m,m} has u_i at i-1 and v_i at
    m+i-1; and the tripartite x{l}_i, y{l}_i, z{l}_i, family-major, sit at
    2n f + 2(i-1) + (l-1) for the family's rank f.
    """
    if not layered:
        return {(f, 0): (r * n - 1, 1) for r, f in enumerate(families)}
    return {(f, l): (2 * r * n + l - 3, 2) for r, f in enumerate(families) for l in (1, 2)}


def _place(target: Graph, at: dict, part: dict) -> Graph:
    """Build one part of target: each block of part with its index pairs.

    at gives each class's target positions, as _positions does.  The
    part's vertices are the target's at the sorted positions its edges
    touch, so no label is made or compared.
    """
    big = target.num_vertices
    keys = set()  # each edge as i * big + j over its target positions i < j
    for (cv, cu), pairs in part.items():
        (ov, sv), (ou, su) = at[cv], at[cu]
        keys.update([i * big + j if (i := ov + sv * a) < (j := ou + su * b) else j * big + i
                     for a, b in pairs])
    keys = sorted(keys)
    rows, cols = list(map(floordiv, keys, repeat(big))), list(map(mod, keys, repeat(big)))
    ends = sorted(set(rows).union(cols))
    # the part's positions, one int object per vertex shared by its pairs
    place = dict(zip(ends, range(len(ends)))).__getitem__
    vs = target.vertices
    if len(ends) < big:
        vs = tuple([vs[k] for k in ends])
    return Graph._trusted(vs, tuple(zip(map(place, rows), map(place, cols))))


def _block(r: int) -> tuple[int, int, int, int]:
    """The four indices of the Chen-Yin index block r: 4r-3 .. 4r."""
    return (4 * r - 3, 4 * r - 2, 4 * r - 1, 4 * r)


def _tripartite(n: int, mains: list, last: list, provenance: str) -> Decomposition:
    """The OPTIMAL decomposition of K_{n,n,n} x K_2 with these parts.

    mains lists h block maps on the layer-1 blocks, edits included.  Part
    k is main part k, and part h+k is its layer flip, the key swap _swapped
    makes.  The block maps in last close the list.
    """
    target = times_k2(make_complete_tripartite(n, n, n))
    at = _positions(_XYZ, n, layered=True)
    parts = mains + [_swapped(main) for main in mains] + last
    return Decomposition(target, [_place(target, at, part) for part in parts], OPTIMAL, provenance)


# ============================================================
# Chen-Yin decomposition of K_{4p,4p}
# ============================================================


def _chen_yin_part_edges(p: int, r: int) -> list[tuple[int, int]]:
    """Index pairs (a, b), each the edge v_a u_b, of the r-th main part G_r.

    Within block r it is the complete bipartite K_{4,4} minus the matching;
    across blocks each side contributes two spokes per foreign block,
    index classes chosen so the union over r covers every non-matching
    edge exactly once.
    """
    own = _block(r)
    a1, a2, a3, a4 = own
    es = [(a, b) for a in own for b in own if a != b]
    for i in range(1, p + 1):
        if i == r:
            continue
        b1, b2, b3, b4 = _block(i)
        es += [
            (a1, b1), (a1, b2), (a3, b1), (a3, b2),  # v_a1, v_a3 to u_b1, u_b2
            (a2, b3), (a2, b4), (a4, b3), (a4, b4),  # v_a2, v_a4 to u_b3, u_b4
            (b1, a3), (b3, a3), (b1, a4), (b3, a4),  # v_b1, v_b3 to u_a3, u_a4
            (b2, a1), (b4, a1), (b2, a2), (b4, a2),  # v_b2, v_b4 to u_a1, u_a2
        ]
    return es


def chen_yin_k4p4p(p: int) -> Decomposition:
    """Planar decomposition of K_{4p,4p} into p+1 parts.

    Parts 1..p are the block graphs G_r; the last part is exactly the
    perfect matching {u_i v_i : i = 1..4p}.  p+1 meets the thickness of
    K_{4p,4p}, so the result is optimal.
    """
    if p < 1:
        raise InvalidSizeError(f"chen_yin_k4p4p needs p >= 1, got {p}")
    n = 4 * p
    target = make_complete_bipartite(n, n)
    at = _positions((Family.U, Family.V), n, layered=False)
    pairs = [_chen_yin_part_edges(p, r) for r in range(1, p + 1)]
    pairs.append([(i, i) for i in range(1, n + 1)])
    return Decomposition(
        target=target,
        parts=[_place(target, at, {_UV: ps}) for ps in pairs],
        guarantee=OPTIMAL,
        provenance=LEMMA_3_2,
    )


# ============================================================
# K_n x K_2 (crown graphs)
# ============================================================


def _g_prime_edges(p: int) -> list[tuple[int, int]]:
    """Extension part for n = 4p+2, as (layer-1, layer-2) index pairs.

    The two new vertices of each layer send stars to all old vertices of
    the other layer, and the four new vertices are tied up by the two
    cross edges; the pattern stays planar for every p and degenerates to
    2K_2 when p = 0.
    """
    n1, n2 = 4 * p + 1, 4 * p + 2
    es: list[tuple[int, int]] = []
    for i in range(1, 4 * p + 1):
        es += [(n1, i), (n2, i), (i, n1), (i, n2)]
    es += [(n1, n2), (n2, n1)]
    return es


def kn_times_k2_decomposition(n: int) -> Decomposition:
    """Optimal planar decomposition of K_n x K_2 into ceil(n/4) parts.

    Even n: the block parts of the K_{4p,4p} decomposition with v on layer
    1 and u on layer 2 (the matching part is exactly the edge set missing
    from the crown graph, so it is dropped), plus one extension part when
    n = 4p+2.  Odd n: the index pairs of n+1, keeping the pairs on indices
    <= n; the part count is unchanged because ceil(n/4) = ceil((n+1)/4)
    for odd n.
    """
    if n < 2:
        raise InvalidSizeError(f"kn_times_k2_decomposition needs n >= 2, got {n}")
    target = times_k2(make_complete(n))
    at = _positions((Family.PLAIN,), n, layered=True)
    p, rem = divmod(n + n % 2, 4)
    main = [_chen_yin_part_edges(p, r) for r in range(1, p + 1)]
    if rem == 2:
        main.append(_g_prime_edges(p))
    if n % 2:
        main = [[(a, b) for a, b in pairs if a <= n and b <= n] for pairs in main]
    return Decomposition(
        target=target,
        parts=[_place(target, at, {_CROWN: pairs}) for pairs in main],
        guarantee=OPTIMAL,
        provenance=THM_3_3,
    )


# ============================================================
# K_{n,n,n} x K_2, n = 4p
# ============================================================


def _lemma42(p: int) -> Decomposition:
    """Optimal decomposition of K_{4p,4p,4p} x K_2 into 2p+1 parts.

    Each main bipartite part is copied three times around the family
    cycle, once per layer orientation; the six per-index matchings that
    the copies leave uncovered close up into 4p disjoint 6-cycles, which
    form the final part.
    """
    n = 4 * p
    mains = [dict.fromkeys(_BLOCKS_LAYER1, _chen_yin_part_edges(p, r)) for r in range(1, p + 1)]
    last = [dict.fromkeys(_SIX_BLOCKS, [(i, i) for i in range(1, n + 1)])]
    return _tripartite(n, mains, last, LEMMA_4_2)


# ============================================================
# K_{n,n,n} x K_2, n = 4p+1
# ============================================================


def _n1_main_part(p: int, r: int) -> dict:
    """The r-th layer-1 main part at n = 4p+1, as a block map.

    Chen-Yin part r on _BLOCKS_LAYER1 gains hub spokes from the six new
    vertices plus the four per-block matching edges the final part cannot
    absorb, and loses the two block edges whose removal frees the faces the
    new spokes pass through.  Each hub star sits next to its mirror image,
    which keeps every part planar.
    """
    nn = 4 * p + 1
    i1, i2, i3, i4 = _block(r)
    nxt = i4 % (4 * p) + 2  # 4r+2 of the next block, cyclically
    pairs = _chen_yin_part_edges(p, r)
    xy1, yz1, zx1 = _BLOCKS_LAYER1
    _, yz2, zx2 = _BLOCKS_LAYER2
    return {
        xy1: pairs + [(nn, i1), (nn, i4), (i3, nn), (nxt, nn)],
        yz1: [e for e in pairs if e != (i1, i4)]
             + [(nn, i2), (nn, i3), (i2, nn), (i3, nn), (i3, i3)],
        zx1: [e for e in pairs if e != (i2, i3)]
             + [(nn, i1), (nn, i4), (i1, nn), (i4, nn), (i4, i4)],
        yz2: [(i2, i2)],
        zx2: [(i1, i1)],
    }


def _n1_final_part_pairs(p: int) -> list[list[tuple[int, int]]]:
    """Index pairs of the last part for n = 4p+1, one list per family pair.

    List k (x-y, y-z, z-x) is placed on both _BLOCKS_LAYER1[k] and
    _BLOCKS_LAYER2[k], and each holds the new index's pair (n, n), so the
    part contains the new-index 6-cycle.  Index classes: i = 4r-3, 4r take
    the y/z hub spokes while i = 4r-2, 4r-1 take the x hub spokes,
    complementing what the main parts absorbed; the x-y matchings close the
    remaining gaps, and the four edges deleted from each main part pair
    reappear here.
    """
    nn = 4 * p + 1
    xy, yz, zx = ([(nn, nn)] for _ in range(3))
    for i in range(1, nn):
        x_hub = i % 4 in (2, 3)
        (zx if x_hub else yz).extend([(nn, i), (i, nn), (i, i)])
        xy += [(nn, i) if x_hub else (i, nn), (i, i)]
    for r in range(1, p + 1):
        i1, i2, i3, i4 = _block(r)
        yz.append((i1, i4))
        zx.append((i2, i3))
    return [xy, yz, zx]


def _lemma44(p: int) -> Decomposition:
    """Optimal decomposition of K_{4p+1,4p+1,4p+1} x K_2 into 2p+1 parts.

    Starts from the n = 4p layout and threads the six new vertices'
    edges through the existing parts; needs p >= 2 (the n = 1 and n = 5
    cases ship as drawn fixtures instead).
    """
    mains = [_n1_main_part(p, r) for r in range(1, p + 1)]
    last = [dict(zip(_SIX_BLOCKS, _n1_final_part_pairs(p) * 2))]
    return _tripartite(4 * p + 1, mains, last, LEMMA_4_4)


# ============================================================
# Drawn fixtures: n = 1, 3, 5
# ============================================================

_FIXTURE_SIZES = (1, 3, 5)


def _fixture(n: int) -> Decomposition:
    """Load and re-verify the checked-in decomposition for n in {1, 3, 5}.

    These small cases come from explicit drawings rather than a formula;
    the files are re-verified on every load so a corrupted fixture can
    never masquerade as a certificate.
    """
    from importlib import resources

    from .serialize import decomposition_from_document, load_json

    ref = resources.files("kronthick").joinpath("data").joinpath(f"knnn_x_k2_n{n}.json")
    try:
        with resources.as_file(ref) as path:
            doc = load_json(path)
        d = decomposition_from_document(doc)
    except FileNotFoundError as exc:
        raise FixtureIntegrityError(f"fixture file for n = {n} is missing") from exc
    expected = times_k2(make_complete_tripartite(n, n, n))
    if d.target != expected:
        raise FixtureIntegrityError(f"fixture n = {n} declares the wrong target graph")
    want = theta_knnn_times_k2(n)
    if len(d.parts) != want:
        raise FixtureIntegrityError(
            f"fixture n = {n} has {len(d.parts)} parts, expected {want}"
        )
    report = verify_decomposition(d.target, d.parts, lower=want)
    if not report.passed:
        raise FixtureIntegrityError(f"fixture n = {n} fails verification: {report.summary()}")
    return replace(d, guarantee=OPTIMAL)


# ============================================================
# K_{n,n,n} x K_2, n = 4p+3, from an external seed
# ============================================================


def validate_seed(seed: Decomposition) -> int:
    """Check a seed and return its p; raises SeedInvalidError on any defect.

    A seed is a planar decomposition of K_{m,m}, m = 4p+3 and p >= 1, into
    p+2 parts whose last part is a single edge.  Every part vertex, isolated
    or not, must be a vertex of K_{m,m}.  Such a seed has no isolated vertex
    in a large part: the p+1 large parts share m*m - 1 = (p+1)(4m-4) edges
    and a planar bipartite part on v vertices has at most 2v-4, so each has
    exactly 4m-4 edges and all 2m vertices carry one.
    """
    m = seed.target.num_vertices // 2
    p, rem = divmod(m - 3, 4)
    if rem or p < 1 or seed.target != make_complete_bipartite(m, m):
        raise SeedInvalidError("seed target must be K_{m,m} with m = 4p+3, p >= 1")
    if len(seed.parts) != p + 2 or seed.parts[-1].num_edges != 1:
        raise SeedInvalidError(
            f"seed for K_{{{m},{m}}} must have {p + 2} parts, the last a single edge"
        )
    # the verifier also fails a part vertex outside K_{m,m}, isolated or not
    report = verify_decomposition(seed.target, seed.parts)
    if not report.passed:
        raise SeedInvalidError(f"seed fails verification: {report.summary()}")
    return p


def _seed_part_pairs(part: Graph) -> list[tuple[int, int]]:
    """The index pair (a, b) of each edge v_a u_b of a validated seed part."""
    ws = part.vertices
    # A validated seed's edges are all u_b v_a, and u sorts before v.
    return [(ws[j].index, ws[i].index) for i, j in part.pairs]


def _lemma46(p: int, seed: Decomposition) -> Decomposition:
    """Decompose K_{4p+3,4p+3,4p+3} x K_2 into 2p+2 parts from a seed.

    The seed is a Decomposition of K_{4p+3,4p+3} that validate_seed
    accepts with this p.  Each seed part is copied three times around the
    family cycle in both layer orientations.  The six product copies of
    the seed's single edge v_a u_b are not given parts of their own: each
    is re-homed onto a part of the opposite layer group, where its
    endpoints land in two different vertex-disjoint copies, so the
    receiving part stays planar no matter what the seed looks like.
    """
    seed_p = validate_seed(seed)
    if seed_p != p:
        raise SeedMismatchError(f"seed is for p = {seed_p}, assembly wants p = {p}")
    mains = [dict.fromkeys(_BLOCKS_LAYER1, _seed_part_pairs(part)) for part in seed.parts[:-1]]
    # The six copies of the dropped single edge v_a u_b: the pair (a, b)
    # on the blocks of the other layer group, whose copies do NOT already
    # contain its endpoints' blocks.
    single = _seed_part_pairs(seed.parts[-1])
    xy2, yz2, zx2 = _BLOCKS_LAYER2
    mains[0].update({xy2: single, zx2: single})
    mains[1][yz2] = single
    d = _tripartite(4 * p + 3, mains, [], LEMMA_4_6)
    # A layer-2 receiving part is planar exactly when its layer-1 partner is.
    for label, g in (("first", d.parts[0]), ("second", d.parts[1])):
        if not is_planar(g).planar:
            raise ConstructionConflictError(
                f"relocated edges made the {label} part nonplanar"
            )
    return d


# ============================================================
# Dispatcher
# ============================================================


def knnn_times_k2_decomposition(n: int, seed_provider=None) -> Decomposition:
    """Decompose K_{n,n,n} x K_2 into ceil((n+1)/2) parts, any n >= 1.

    The family's one public builder.  Dispatch: drawn fixtures for
    n in {1, 3, 5}; Lemma 4.2 for n = 0 and Lemma 4.4 for n = 1 (mod 4);
    Lemma 4.6 for n = 3 (mod 4), from the seed decomposition of K_{n,n}
    that seed_provider(p) returns; n = 2 (mod 4), n = 2 included, builds
    n+1 and induces its target and parts on the indices <= n.  With no
    seed provider, the seed-dependent sizes raise SeedRequiredError.
    """
    if n < 1:
        raise InvalidSizeError(f"knnn_times_k2_decomposition needs n >= 1, got {n}")
    if n in _FIXTURE_SIZES:
        return _fixture(n)
    rem = n % 4
    if rem == 0:
        return _lemma42(n // 4)
    if rem == 1:
        return _lemma44(n // 4)
    if rem == 3:
        p = (n - 3) // 4
        if seed_provider is None:
            raise SeedRequiredError(
                f"n = {n} needs a seed decomposition of K_{{{n},{n}}} "
                f"({p + 2} planar parts, the last a single edge); "
                "pass seed_provider or supply a seed file"
            )
        return _lemma46(p, seed_provider(p))
    # rem == 2: induce n+1 on the indices <= n.  Induced subgraphs keep the
    # parts disjoint, covering and planar, and n/2 + 1 parts is still optimal.
    bigger = knnn_times_k2_decomposition(n + 1, seed_provider)
    target, *parts = [induced_subgraph(g, lambda v: v.index <= n)
                      for g in (bigger.target, *bigger.parts)]
    return Decomposition(target, parts, OPTIMAL, bigger.provenance)



# ============================================================
# Orbits: the parts a construction makes as relabelled copies
# ============================================================


def _swaps(p: int) -> list:
    """Block part r-1 is block part 0 with index blocks 1 and r exchanged,
    for r = 2..p.

    Chen-Yin part r is part 1 under that swap: each part treats all its
    foreign blocks alike.
    """
    return [(r - 1, 0, _swap_blocks(r), False) for r in range(2, p + 1)]


def _swap_blocks(r: int):
    """The index map that exchanges index blocks 1 and r."""
    d = 4 * (r - 1)
    return lambda a: a + d if a <= 4 else a - d if d < a <= d + 4 else a


def _shifts(p: int) -> list:
    """Part s is part 0 with each index of 1..4p moved s blocks on,
    cyclically, for s = 1..p-1; the index 4p+1 stays."""
    return [(s, 0, _shift_blocks(4 * p, 4 * s), False) for s in range(1, p)]


def _shift_blocks(m: int, d: int):
    """The index map that moves each index of 1..m on by d, cyclically."""
    return lambda a: (a - 1 + d) % m + 1 if a <= m else a


def _flips(first: int, count: int) -> list:
    """Part first+k is part k with every layer flipped, for k < count."""
    return [(first + k, k, _same_index, True) for k in range(count)]


def _same_index(a: int) -> int:
    return a


# The relabellings each construction makes, keyed by provenance.  An entry
# (families, step, residues, least, claims) fits a target of that many
# families with indices 1..n on step layers, n = 4p + r for r in residues
# and p >= least.  claims(p) lists (i, j, index, flip), j < i: part i is
# part j with each label (f, a, l) relabelled (f, index(a), l), the layer
# flipped if flip is set.
# - THM_3_3, K_n x K_2, any n: block swaps.  Block part p-1 holds the index
#   n+1 that odd n drops when n = 3 (mod 4), and p = n // 4 stops short of it.
# - LEMMA_3_2, K_{4p,4p}: block swaps.
# - LEMMA_4_2, n = 4p: block swaps among the layer-1 parts 0..p-1, and
#   layer-2 part p+k is layer-1 part k with every layer flipped.
# - LEMMA_4_4, n = 4p+1: cyclic block shifts of part 0 that keep the index
#   n, and layer flips as in LEMMA_4_2.
# - LEMMA_4_6, n = 4p+3, and n = 4p+2 induced from it: layer flips only,
#   part p+1+k from part k, which commute with dropping the index n+1.
_ORBITS = {
    THM_3_3: (1, 2, (0, 1, 2, 3), 0, _swaps),
    LEMMA_3_2: (2, 1, (0,), 1, _swaps),
    LEMMA_4_2: (3, 2, (0,), 1, lambda p: _swaps(p) + _flips(p, p)),
    LEMMA_4_4: (3, 2, (1,), 2, lambda p: _shifts(p) + _flips(p, p)),
    LEMMA_4_6: (3, 2, (2, 3), 1, lambda p: _flips(p + 1, p + 1)),
}


def _move(ids: list, size: int, step: int, index, flip: bool) -> list:
    """ids with each (f, a, l) moved to (f, index(a), l), l flipped if flip.

    By _positions, (f, a, l) has id size*r + step*(a-1) + (l-1) for the
    rank r of f, size = step*n and l-1 = 0 if layerless, so a flip is id ^ 1.
    """
    return [(x + step * (index(a := x % size // step + 1) - a)) ^ flip for x in ids]


def orbit_images(d: Decomposition) -> list:
    """Per part of d, None or (j, move), as verify_decomposition takes them:
    move carries a list of target vertex ids by the relabelling that
    d.provenance's construction makes this part from part j with.

    Only the provenance, the target's vertex count and the number of parts
    are read, so the moves cost the number of claims.  A target of another
    size gets no moves, and too few parts drop the claims past the last
    one.  The verifier checks every move on the parts' own ids.
    """
    images = [None] * len(d.parts)
    if d.provenance not in _ORBITS:
        return images
    families, step, residues, least, claims = _ORBITS[d.provenance]
    n, spare = divmod(d.target.num_vertices, families * step)
    p, rem = divmod(n, 4)
    if spare or p < least or rem not in residues:
        return images
    for i, j, index, flip in claims(p):
        if i < len(images):
            images[i] = (j, partial(_move, size=step * n, step=step, index=index, flip=flip))
    return images
