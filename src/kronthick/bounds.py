"""Closed-form thickness values and bounds, each reported with provenance tags.

A report holds a lower and an upper bound; its ``exact`` value is the
thickness when the two meet, and None otherwise.

Everything here is exact integer arithmetic; ceilings are computed with
negative floor division, never floats.  The convention throughout the package
is theta = 1 for every planar graph, including edgeless ones; theta is
undefined only for the empty vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSizeError, PreconditionError
from .graphs import Graph, is_triangle_free
from .planarity import euler_max_edges, is_planar
from .products import times_k2

# Provenance tags carried by reports and decompositions.
THM_2_1 = "THM_2_1"
THM_2_2 = "THM_2_2"
LEMMA_3_1 = "LEMMA_3_1"
LEMMA_3_2 = "LEMMA_3_2"
THM_3_3 = "THM_3_3"
THM_3_4 = "THM_3_4"
THM_3_6 = "THM_3_6"
THM_4_1 = "THM_4_1"
LEMMA_4_2 = "LEMMA_4_2"
LEMMA_4_4 = "LEMMA_4_4"
LEMMA_4_6 = "LEMMA_4_6"
THM_4_7 = "THM_4_7"
EULER = "EULER"
PLANAR = "PLANAR"
OPEN = "OPEN"
ORACLE = "ORACLE"
FIXTURE = "FIXTURE"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper thickness bounds; the thickness is exact when they meet."""

    lower: int
    upper: int
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise PreconditionError("lower bound must be non-negative")
        if self.lower > self.upper:
            raise PreconditionError(
                f"lower {self.lower} exceeds upper {self.upper}"
            )

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None


def thickness_lower_bound(g: Graph) -> int:
    """Edge-count lower bound for theta(g): ceil(|E| / planar edge capacity)."""
    v = g.num_vertices
    if v == 0:
        raise PreconditionError("thickness is undefined for the empty vertex set")
    e = g.num_edges
    if e == 0:
        return 1
    cap = euler_max_edges(v, is_triangle_free(g))
    return max(1, _ceil_div(e, cap))


def product_lower_bound(g: Graph, h: Graph) -> int:
    """Counting lower bound for theta(g x h); both factors need >= 2 vertices."""
    if g.num_vertices < 2 or h.num_vertices < 2:
        raise PreconditionError("product_lower_bound needs factors on >= 2 vertices")
    eg, eh = g.num_edges, h.num_edges
    vg, vh = g.num_vertices, h.num_vertices
    # g x h has a triangle iff both factors do: a product triangle projects
    # onto one in each factor, and a triangle in each factor pair up into one.
    if is_triangle_free(g) or is_triangle_free(h):
        val = _ceil_div(eg * eh, vg * vh - 2)
    else:
        val = _ceil_div(2 * eg * eh, 3 * vg * vh - 6)
    return max(val, 1)


def product_upper_bound(g: Graph, h: Graph) -> int:
    """Decomposition upper bound: route each factor edge through a double cover."""
    if g.num_edges == 0 or h.num_edges == 0:
        return 1
    # both factors have an edge, so each has the 2 vertices g_times_k2_bounds needs
    return min(
        h.num_edges * g_times_k2_bounds(g).upper,
        g.num_edges * g_times_k2_bounds(h).upper,
    )


def theta_knn(n: int) -> int:
    """theta(K_{n,n}) = ceil((n+2)/4)."""
    if n < 1:
        raise InvalidSizeError(f"n must be >= 1, got {n}")
    return _ceil_div(n + 2, 4)


def theta_kn_times_k2(n: int) -> int:
    """theta(K_n x K_2) = ceil(n/4) for n >= 2; 1 for the edgeless n = 1 case."""
    if n < 1:
        raise InvalidSizeError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    return _ceil_div(n, 4)


def theta_knnn_times_k2(n: int) -> int:
    """theta(K_{n,n,n} x K_2) = ceil((n+1)/2)."""
    if n < 1:
        raise InvalidSizeError(f"n must be >= 1, got {n}")
    return _ceil_div(n + 1, 2)


def g_times_k2_bounds(g: Graph) -> BoundReport:
    """Bounds for theta(g x K_2) on an n-vertex graph g, n >= 2."""
    n = g.num_vertices
    if n < 2:
        raise PreconditionError("g_times_k2_bounds needs a graph on >= 2 vertices")
    prod = times_k2(g)
    if is_planar(prod).planar:
        return BoundReport(1, 1, (THM_3_4, PLANAR))
    return BoundReport(thickness_lower_bound(prod), _ceil_div(n, 4), (THM_3_4,))


def _theta_bipartite_report(a: int, b: int) -> BoundReport:
    """What this module knows about theta(K_{a,b})."""
    if min(a, b) <= 2:
        return BoundReport(1, 1, (PLANAR,))
    if a == b:
        return knn_report(a)
    lower = max(1, _ceil_div(a * b, 2 * (a + b) - 4))
    upper = theta_knn(max(a, b))  # K_{a,b} sits inside the larger balanced graph
    tags = (EULER, LEMMA_3_1) if lower == upper else (EULER, LEMMA_3_1, OPEN)
    return BoundReport(lower, upper, tags)


def theta_kmn_times_kpq(m: int, n: int, p: int, q: int) -> BoundReport:
    """Bounds for theta(K_{m,n} x K_{p,q}) = max over its two components."""
    for s in (m, n, p, q):
        if s < 1:
            raise InvalidSizeError(f"part sizes must be >= 1, got {(m, n, p, q)}")
    r1 = _theta_bipartite_report(m * p, n * q)
    r2 = _theta_bipartite_report(m * q, n * p)
    return BoundReport(
        max(r1.lower, r2.lower),
        max(r1.upper, r2.upper),
        tuple(dict.fromkeys((THM_3_6,) + r1.provenance + r2.provenance)),
    )


def tripartite_times_k2_bounds(l: int, m: int, n: int) -> BoundReport:
    """Bounds for theta(K_{l,m,n} x K_2) with 1 <= l <= m <= n."""
    if not (1 <= l <= m <= n):
        raise PreconditionError(f"sizes must satisfy 1 <= l <= m <= n, got {(l, m, n)}")
    lower = max(1, _ceil_div(l * m + l * n + m * n, 2 * (l + m + n) - 2))
    rb = _theta_bipartite_report(m, n)
    tags = (THM_4_1,) if rb.exact is not None else (THM_4_1, OPEN)
    return BoundReport(lower, 2 * rb.upper, tuple(dict.fromkeys(tags + rb.provenance)))


def knn_report(n: int) -> BoundReport:
    """Exact report for theta(K_{n,n})."""
    v = theta_knn(n)
    return BoundReport(v, v, (LEMMA_3_1,))


def knnn_times_k2_report(n: int) -> BoundReport:
    """Exact report for theta(K_{n,n,n} x K_2) = ceil((n+1)/2)."""
    v = theta_knnn_times_k2(n)
    return BoundReport(v, v, (THM_4_7,))


def product_bounds_report(g: Graph, h: Graph) -> BoundReport:
    """Combined lower/upper report for theta(g x h)."""
    lower_tag = THM_2_2 if is_triangle_free(g) or is_triangle_free(h) else THM_2_1
    return BoundReport(
        product_lower_bound(g, h), product_upper_bound(g, h), (lower_tag, THM_3_4)
    )
