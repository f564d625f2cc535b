#!/usr/bin/env python3
"""Regenerate the checked-in fixture decompositions for n = 1, 3, 5.

The n = 3 and n = 5 part graphs are transcribed from explicit planar
drawings; this script re-verifies them (coverage, disjointness, per-part
planarity, part count) and only then writes the JSON files the library
loads at runtime.  Run from the repository root:

    python3 scripts/make_fixtures.py [--check]

--check verifies against the existing files without rewriting them.
"""

import argparse
import sys
from pathlib import Path

from kronthick import (
    Decomposition,
    Family,
    Graph,
    VertexLabel,
    make_complete_tripartite,
    theta_knnn_times_k2,
    times_k2,
    verify_decomposition,
)
from kronthick.bounds import FIXTURE
from kronthick.serialize import decomposition_document, to_json
from kronthick.verification import OPTIMAL

_FAMILIES = {"x": Family.X, "y": Family.Y, "z": Family.Z}


def _vertex(token: str) -> VertexLabel:
    # token like x1_3 -> family x, layer 1, index 3
    fam, layer = token[0], token[1]
    return VertexLabel(_FAMILIES[fam], int(token.split("_")[1]), int(layer))


def _graph(edge_text: str) -> Graph:
    es = []
    for line in edge_text.split("\n"):
        line = line.split("#")[0].strip()
        if not line:
            continue
        for pair in line.split(","):
            a, b = pair.split()
            es.append((_vertex(a), _vertex(b)))
    vs = {v for e in es for v in e}
    return Graph(vs, es)


# ----------------------------------------------------------------
# n = 1: the product is a single 6-cycle, one planar part.
# ----------------------------------------------------------------

N1_PART1 = """
x1_1 y2_1, y2_1 z1_1, z1_1 x2_1, x2_1 y1_1, y1_1 z2_1, z2_1 x1_1
"""

# ----------------------------------------------------------------
# n = 3: two parts, 30 + 24 edges.
# ----------------------------------------------------------------

N3_PART1 = """
x1_1 y2_3, z2_1 x1_3, y1_1 z2_3, x2_1 y1_3, z1_1 x2_3
x1_1 y2_2, y2_2 z1_3, z2_1 x1_2, x1_2 y2_3, y1_1 z2_2
z2_2 x1_3, x2_1 y1_2, y1_2 z2_3, z1_1 x2_2, x2_2 y1_3
y2_1 z1_2, z1_2 x2_3
z1_3 y2_3, y2_3 x1_3, x1_3 z2_3, z2_3 y1_3, y1_3 x2_3
x1_1 z2_1, z2_1 y1_1, y1_1 x2_1, x2_1 z1_1, z1_1 y2_1
x1_1 y2_1, z1_3 x2_3, z1_3 y2_1
"""

N3_PART2 = """
z2_2 y1_3, y1_3 z2_1, z2_1 y1_2, y1_2 x2_3, x2_3 y1_1, y1_1 x2_2, x2_2 z1_3
z2_3 x1_2, x1_2 y2_1, y2_1 x1_3, x1_3 y2_2, y2_2 z1_1, z1_1 y2_3, y2_3 z1_2
z2_2 x1_1, x1_1 z2_3
z1_2 x2_1, x2_1 z1_3
z2_2 x1_2, x1_2 y2_2, y2_2 z1_2, z1_2 x2_2, z2_2 y1_2, y1_2 x2_2
"""

# ----------------------------------------------------------------
# n = 5: three parts A, B, C with 52 + 52 + 46 edges.
# ----------------------------------------------------------------

N5_PART_A = """
y1_1 z2_2, y1_1 z2_3, y1_1 z2_4, y1_2 z2_1, y1_2 z2_3, y1_2 z2_4
y1_3 z2_1, y1_3 z2_2, y1_3 z2_4, y1_4 z2_1, y1_4 z2_2, y1_4 z2_3
y1_2 z2_5, y1_3 z2_5
x1_1 z2_5, x1_4 z2_5
x1_1 y2_2, x1_1 y2_3, x1_1 y2_4, x1_2 y2_1, x1_2 y2_3
x1_3 y2_2, x1_3 y2_4, x1_4 y2_1, x1_4 y2_2, x1_4 y2_3
x1_5 y2_1, x1_5 y2_2, x1_5 y2_3, x1_5 y2_4, x1_4 y2_5
x2_1 z1_2, x2_1 z1_3, x2_1 z1_4, x2_2 z1_1, x2_2 z1_3
x2_3 z1_2, x2_3 z1_4, x2_3 z1_5, x2_4 z1_1, x2_4 z1_2
x2_4 z1_3, x2_5 z1_1, x2_5 z1_3, x2_5 z1_4
y1_5 x2_3, y1_5 x2_4, y1_5 x2_5
y2_1 z1_5, y2_5 z1_4, y2_5 z1_5, y2_5 z1_2
"""

N5_PART_B = """
z1_1 y2_3, y2_3 z1_4, z1_4 y2_2, y2_2 z1_1
z1_3 y2_4, y2_4 z1_2, z1_2 y2_1, y2_1 z1_3
z1_1 y2_4, y2_1 z1_4, z1_3 y2_2, z1_2 y2_3
y1_2 x2_1, y1_3 x2_4, x2_4 y1_2
x2_4 y1_1, y1_1 x2_5, x2_5 y1_4, y1_4 x2_1
y1_2 x2_5, x2_5 y1_3
y1_2 x2_3, x2_3 y1_4
y1_3 x2_2, x2_2 y1_1
x1_4 z2_2, z2_2 x1_1, x1_1 z2_3
x1_1 z2_4, z2_4 x1_5, x1_5 z2_1, z2_1 x1_4
x1_5 z2_2
z2_3 x1_2, x1_2 z2_1
z2_2 x1_3, x1_3 z2_4
y1_3 x2_1
z2_3 x1_4
z2_3 y1_5
z1_5 y2_2, z1_5 y2_3, z1_5 x2_4, z1_5 x2_1
x1_1 y2_5, y2_5 x1_2, y2_5 x1_5
y1_4 z2_5, z2_5 x1_2
x2_1 y1_5, y1_5 z2_1, z2_5 y1_5
"""

N5_PART_C = """
x1_3 y2_3, y2_3 z1_3, z1_3 x2_3, x2_3 y1_3, y1_3 z2_3, z2_3 x1_5
z2_1 x1_1, x1_1 y2_1, y2_1 z1_1, z1_1 x2_1, x2_1 y1_1, y1_1 z2_5
x1_3 z2_1, x1_5 z2_5, x1_3 y2_1, z1_1 x2_3, x2_3 y1_1
x1_3 y2_5, y2_5 z1_1, z1_3 y2_5, x1_3 z2_3, z2_1 y1_1, x1_3 z2_5
x2_2 y1_2, y1_2 z2_2, z2_2 x1_2, x1_2 y2_2, y2_2 z1_2, z1_2 x2_5
z1_4 x2_4, x2_4 y1_4, y1_4 z2_4, z2_4 x1_4, x1_4 y2_4, y2_4 z1_5
x2_2 z1_4, x2_5 z1_5, x2_2 y1_4, z2_4 x1_2, x1_2 y2_4
x2_2 y1_5, y1_5 z2_4, z2_2 y1_5, x2_2 z1_2, z1_4 y2_4, x2_2 z1_5
"""

_FIXTURES = {
    1: ((N1_PART1,), "drawn hexagon embedding: the product is a single 6-cycle"),
    3: ((N3_PART1, N3_PART2), "drawn two-part planar decomposition"),
    5: ((N5_PART_A, N5_PART_B, N5_PART_C), "drawn three-part planar decomposition"),
}


def build_fixture(n: int) -> Decomposition:
    texts, figure = _FIXTURES[n]
    parts = tuple(_graph(t) for t in texts)
    target = times_k2(make_complete_tripartite(n, n, n))
    return Decomposition(
        target=target,
        parts=parts,
        guarantee=OPTIMAL,
        provenance=FIXTURE,
        figure=f"K_{{{n},{n},{n}}} x K_2: {figure}",
    )


def check_fixture(n: int, d: Decomposition) -> bool:
    want = theta_knnn_times_k2(n)
    report = verify_decomposition(d.target, d.parts, lower=want)
    ok = report.passed and len(d.parts) == want
    sizes = [g.num_edges for g in d.parts]
    print(f"n={n}: parts={len(d.parts)} sizes={sizes} total={sum(sizes)} "
          f"passed={report.passed} optimality={report.optimality}")
    if not report.passed:
        for e in report.coverage_missing[:12]:
            print(f"  missing: {e[0].name} {e[1].name}")
        for e in report.coverage_extra[:12]:
            print(f"  extra:   {e[0].name} {e[1].name}")
        for e, idxs in report.overlap[:12]:
            print(f"  overlap: {e[0].name} {e[1].name} in parts {idxs}")
        if report.nonplanar_parts:
            print(f"  nonplanar parts: {report.nonplanar_parts}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", action="store_true",
                    help="verify against existing files, write nothing")
    args = ap.parse_args()
    data_dir = Path(__file__).resolve().parent.parent / "src" / "kronthick" / "data"
    ok = True
    for n in sorted(_FIXTURES):
        d = build_fixture(n)
        if not check_fixture(n, d):
            ok = False
            continue
        text = to_json(decomposition_document(d))
        path = data_dir / f"knnn_x_k2_n{n}.json"
        if args.check:
            if not path.exists() or path.read_text() != text:
                print(f"n={n}: {path} is stale or missing")
                ok = False
        else:
            path.write_text(text)
            print(f"n={n}: wrote {path} ({len(text)} bytes)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
