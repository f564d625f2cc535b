#!/usr/bin/env python3
"""Search for a 3-part seed decomposition of K_{7,7} (24 + 24 + 1 edges).

Strategy: view K_{7,7} as a circulant on differences d = (j - i) mod 7.
Two difference classes form a Hamilton cycle; give one cycle to each big
part, then enumerate ways to split the remaining three classes (21 edges)
into 10 + 10 + 1 so both parts stay planar.  Each candidate costs two
planarity tests on 14 vertices, so exhausting a pairing is cheap.  Falls
back to the oracle's branch-and-bound search if no circulant split works.

The circulant search's seed is written to
src/kronthick/data/seed_k7_7.json, which it reproduces byte for byte.  The
oracle finds a different seed, so on that path the validated document goes
to stdout and the bundled file is left as it is.  Progress goes to stderr.
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

from kronthick import (
    Decomposition,
    Family,
    Graph,
    VertexLabel,
    make_complete_bipartite,
)
from kronthick.bounds import ORACLE
from kronthick.constructions import validate_seed
from kronthick.planarity import is_planar_edge_list
from kronthick.serialize import decomposition_document, to_json
from kronthick.verification import UPPER_BOUND_ONLY

M = 7


def _u(i):
    return VertexLabel(Family.U, i + 1)


def _v(i):
    return VertexLabel(Family.V, i + 1)


# Integer encoding for the fast planarity tester: u_i -> i, v_j -> 7 + j.
def _class_edges(d):
    return [(i, M + (i + d) % M) for i in range(M)]


def _planar(int_edges):
    return is_planar_edge_list(2 * M, int_edges)


def circulant_search(verbose=False):
    """Try every pairing of difference classes and every chord split."""
    classes = list(range(M))
    tried = 0
    t0 = time.time()
    # Choose two disjoint class pairs for the two Hamilton cycles; the
    # other three classes supply the 21 loose edges.
    for quad in itertools.combinations(classes, 4):
        for pair1 in itertools.combinations(quad, 2):
            pair2 = tuple(c for c in quad if c not in pair1)
            if pair1 > pair2:
                continue
            rest = [c for c in classes if c not in quad]
            loose = [e for d in rest for e in _class_edges(d)]
            h1 = [e for d in pair1 for e in _class_edges(d)]
            h2 = [e for d in pair2 for e in _class_edges(d)]
            for take in itertools.combinations(range(21), 10):
                tset = set(take)
                s1 = [loose[i] for i in take]
                if not _planar(h1 + s1):
                    continue
                s2 = [loose[i] for i in range(21) if i not in tset]
                # drop one edge from s2 to become the single-edge part
                for drop in range(len(s2)):
                    cand = s2[:drop] + s2[drop + 1:]
                    if _planar(h2 + cand):
                        elapsed = time.time() - t0
                        print(f"found after {tried} candidates, {elapsed:.1f}s "
                              f"(pairs {pair1}/{pair2}, rest {rest})", file=sys.stderr)
                        return h1 + s1, h2 + cand, s2[drop]
                tried += 1
            if verbose:
                print(f"pairs {pair1}/{pair2}: exhausted ({time.time()-t0:.0f}s)",
                      file=sys.stderr)
    return None


def oracle_search(wall):
    """Two planar parts for K_{7,7} minus u_1 v_1, then that edge as the third.

    u_1 v_1 is the first edge in the oracle's search order: with it aside
    the split takes 166 nodes, while with u_7 v_7, the last edge, aside no
    split turns up within 30,001 nodes.
    """
    from kronthick.oracle import SearchBudget, find_planar_partition

    single = (_u(0), _v(0))
    g = make_complete_bipartite(M, M)
    rest = Graph(g.vertices, [e for e in g.edges if e != single])
    budget = SearchBudget(max_nodes=50_000_000, wall_limit=wall)
    res = find_planar_partition(rest, 2, budget=budget)
    print(f"oracle search: found={res.found is not None} "
          f"exhausted={res.exhausted} nodes={res.nodes}", file=sys.stderr)
    if res.found is None:
        return None
    return res.found.parts + (Graph(single, [single]),)


def _to_graph(int_edges):
    es = [(_u(a) if a < M else _v(a - M), _u(b) if b < M else _v(b - M))
          for a, b in int_edges]
    return Graph({x for e in es for x in e}, es)


def seed_json(parts) -> str:
    """Validate the K_{7,7} seed with these parts; return its document text."""
    d = Decomposition(
        target=make_complete_bipartite(M, M),
        parts=parts,
        guarantee=UPPER_BOUND_ONLY,
        provenance=ORACLE,
    )
    validate_seed(d)
    return to_json(decomposition_document(d))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--oracle", action="store_true",
                    help="skip the circulant search, use branch and bound")
    ap.add_argument("--wall", type=float, default=300.0,
                    help="wall-clock budget for the oracle fallback")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    parts = None
    if not args.oracle:
        hit = circulant_search(verbose=args.verbose)
        if hit is not None:
            p1, p2, single = hit
            parts = (_to_graph(p1), _to_graph(p2), _to_graph([single]))
    by_oracle = parts is None
    if by_oracle:
        print("circulant search failed, trying oracle branch and bound", file=sys.stderr)
        parts = oracle_search(args.wall)
    if parts is None:
        print("no seed found", file=sys.stderr)
        return 1

    text = seed_json(parts)
    (u, v), = parts[-1].edges
    print(f"seed validated: sizes={[g.num_edges for g in parts]} "
          f"single={u.name}-{v.name}", file=sys.stderr)
    if by_oracle:
        sys.stdout.write(text)
        return 0
    out = Path(__file__).resolve().parent.parent / "src" / "kronthick" / "data" / "seed_k7_7.json"
    out.write_text(text)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
