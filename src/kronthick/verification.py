"""The certifying checker every construction, fixture, and seed must pass.

A decomposition of a target graph is valid when every target edge appears in
exactly one part, no part carries an edge outside the target, and every part
is planar.  Vertex coverage is deliberately not required: parts may omit
vertices they do not touch.
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
        if self.nonplanar_parts:
            bits.append(f"non-planar parts {list(self.nonplanar_parts)}")
        return "FAIL: " + ", ".join(bits)


def verify_decomposition(
    target: Graph, parts, lower: int | None = None
) -> VerificationReport:
    """Check edge coverage, disjointness, and per-part planarity.

    When a lower bound is supplied and the part count meets it, the report is
    marked OPTIMAL; otherwise optimality stays NOT_CERTIFIED.  Defect lists
    are sorted, so reports are deterministic.
    """
    parts = list(parts)
    holders: dict = {}
    for i, part in enumerate(parts):
        for e in part.edges:
            holders.setdefault(e, []).append(i)
    covered = set(holders)
    missing = sorted(target.edge_set - covered)
    extra = sorted(covered - target.edge_set)
    overlap = sorted(
        (e, tuple(idx)) for e, idx in holders.items() if len(idx) > 1
    )
    nonplanar = [i for i, part in enumerate(parts) if not is_planar(part).planar]
    passed = not (missing or extra or overlap or nonplanar)
    optimality = OPTIMAL if passed and lower is not None and len(parts) == lower else NOT_CERTIFIED
    return VerificationReport(
        coverage_missing=tuple(missing),
        coverage_extra=tuple(extra),
        overlap=tuple(overlap),
        nonplanar_parts=tuple(nonplanar),
        passed=passed,
        optimality=optimality,
    )
