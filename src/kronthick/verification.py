"""The certifying checker every construction, fixture, and seed must pass.

A decomposition of a target graph is valid when every target edge appears in
exactly one part, no part carries an edge or a vertex outside the target,
and every part is planar.  Vertex coverage is deliberately not required:
parts may omit vertices they do not touch.  A decomposition that claims to
be OPTIMAL must also be certified so, or it is not valid either.

A caller that knows part i to be a relabelled copy of an earlier part j
may say so with a move, and part i then takes part j's verdict without its
own planarity test.  constructions.orbit_images derives the moves from a
decomposition's provenance and sizes, so a parsed document gets them as a
fresh build does.  A move maps a list of target vertex ids, and it is
checked, not trusted, on the ids the coverage check gives the parts: part
j's moved ids must be one to one and inside [0, n), n the key base, and
must carry part j's pairs onto exactly part i's coverage keys.  Such a move
is an isomorphism between the two edge sets, so the parts are both planar
or both not.  Key orientation does not weaken this: a builder part's ids
are in label order, and an id outside the target can only make a true edge
miss, never match a wrong one, because x*n + y with x < y cannot equal
p*n + q with p > q.  A move that fails the check, or means nothing for a
foreign document, only sends part i through the planarity test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .planarity import is_planar

OPTIMAL = "OPTIMAL"
NOT_CERTIFIED = "NOT_CERTIFIED"
UPPER_BOUND_ONLY = "UPPER_BOUND_ONLY"


@dataclass(frozen=True)
class VerificationReport:
    """Defect lists for a claimed decomposition; empty lists everywhere = pass."""

    coverage_missing: tuple  # target edges in no part
    coverage_extra: tuple  # part edges outside the target
    overlap: tuple  # (edge, part indices) for edges in more than one part
    nonplanar_parts: tuple  # indices of parts failing planarity
    passed: bool
    optimality: str  # OPTIMAL or NOT_CERTIFIED
    foreign_vertices: tuple = ()  # part vertices outside the target, sorted
    uncertified_claim: str | None = None  # a guarantee claimed but not certified

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.optimality})"
        bits = []
        if self.coverage_missing:
            bits.append(f"{len(self.coverage_missing)} missing")
        if self.coverage_extra:
            bits.append(f"{len(self.coverage_extra)} extra")
        if self.overlap:
            bits.append(f"{len(self.overlap)} overlapping")
        if self.foreign_vertices:
            bits.append(f"{len(self.foreign_vertices)} vertices outside the target")
        if self.nonplanar_parts:
            bits.append(f"non-planar parts {list(self.nonplanar_parts)}")
        if self.uncertified_claim:
            bits.append(f"claims {self.uncertified_claim}, not certified")
        return "FAIL: " + ", ".join(bits)


def _is_image(ids: list, pairs, move, n: int, keys: list) -> bool:
    """move carries ids, part j's vertex ids, one to one into [0, n), and
    part j's pairs onto exactly keys, part i's coverage keys in order."""
    m = move(ids)
    if len(m) != len(ids) or len(set(m)) != len(m) or (m and not 0 <= min(m) <= max(m) < n):
        return False
    # keyed x < y and sorted, as a builder part's keys are
    moved = sorted([x * n + y if (x := m[a]) < (y := m[b]) else y * n + x for a, b in pairs])
    return moved == keys


def verify_decomposition(
    target: Graph, parts, lower: int | None = None, images=None, claim: str | None = None
) -> VerificationReport:
    """Check edge coverage, disjointness, part vertices and per-part planarity.

    When a lower bound is supplied and the part count meets it, the report is
    marked OPTIMAL; otherwise optimality stays NOT_CERTIFIED.  claim is the
    guarantee the decomposition states: a claim of OPTIMAL that the report
    does not certify fails it, and is reported only when nothing else does.
    Defect lists are sorted, so reports are deterministic.  images, if
    given, holds per part None or (j, move) with j < i, move mapping a
    list of part j's target vertex ids to part i's; a move that passes the
    check in the module docstring hands part i part j's planarity verdict,
    and any other part is tested.
    """
    parts = list(parts)
    # Integer vertex ids: the target's indices, then each vertex that only
    # a part has, in order of first appearance.  A pair lists its ends in
    # label order, so the key x*n + y of their ids x, y names one edge
    # whatever the order of the ids; n exceeds every id.
    labels = list(target.vertices)
    ids = {v: i for i, v in enumerate(labels)}
    n = len(labels) + sum(part.num_vertices for part in parts)
    pids, keys = [], []
    for part in parts:
        pid = list(map(ids.get, part.vertices))
        if None in pid:
            for k, v in enumerate(part.vertices):
                if pid[k] is None:
                    pid[k] = ids[v] = len(labels)
                    labels.append(v)
        pids.append(pid)
        keys.append([pid[a] * n + pid[b] for a, b in part.pairs])
    target_keys = {a * n + b for a, b in target.pairs}
    covered = set().union(*keys)
    holders: dict = {}
    if len(covered) < sum(map(len, keys)):  # some edge is in two parts
        for i, ks in enumerate(keys):
            for key in ks:
                holders.setdefault(key, []).append(i)

    def label_edge(key: int) -> tuple:
        x, y = divmod(key, n)
        return labels[x], labels[y]

    missing = sorted(map(label_edge, target_keys - covered))
    extra = sorted(map(label_edge, covered - target_keys))
    overlap = sorted(
        (label_edge(key), tuple(idx)) for key, idx in holders.items() if len(idx) > 1
    )
    images = list(images or ())
    images += [None] * (len(parts) - len(images))
    planar: list[bool] = []
    for i, (part, image) in enumerate(zip(parts, images)):
        j, move = image or (i, None)
        if 0 <= j < i and _is_image(pids[j], parts[j].pairs, move, n, keys[i]):
            planar.append(planar[j])
        else:
            planar.append(is_planar(part).planar)
    nonplanar = [i for i, ok in enumerate(planar) if not ok]
    foreign = sorted(labels[target.num_vertices:])
    passed = not (missing or extra or overlap or nonplanar or foreign)
    optimality = OPTIMAL if passed and lower is not None and len(parts) == lower else NOT_CERTIFIED
    unproven = passed and claim == OPTIMAL and optimality != OPTIMAL
    return VerificationReport(
        coverage_missing=tuple(missing),
        coverage_extra=tuple(extra),
        overlap=tuple(overlap),
        nonplanar_parts=tuple(nonplanar),
        passed=passed and not unproven,
        optimality=optimality,
        foreign_vertices=tuple(foreign),
        uncertified_claim=claim if unproven else None,
    )
