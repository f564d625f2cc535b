#!/usr/bin/env python3
"""Per-stage timings of the K_n x K_2 pipeline, as a markdown table.

Each stage runs in this process, best of --repeat runs, for each size:

- target: ``times_k2(make_complete(n))``;
- build: ``kn_times_k2_decomposition(n)``, its target included;
- verify with images: ``verify_decomposition`` given the builder's maps;
- verify without images, as ``verify PATH`` runs it;
- LR: ``is_planar`` on the part with the most edges;
- emit: ``to_json(decomposition_document(d))``;
- parse: ``json.loads`` and ``decomposition_from_document``.

Run from the repository root:

    PYTHONPATH=src python3 scripts/stage_times.py [--sizes 64,128,256] [--repeat 3]
"""

import argparse
import json
import time

from kronthick import (
    is_planar,
    kn_times_k2_decomposition,
    make_complete,
    thickness_lower_bound,
    times_k2,
    verify_decomposition,
)
from kronthick.serialize import decomposition_document, decomposition_from_document, to_json


def best_ms(fn, repeat: int) -> float:
    """The fastest of repeat calls of fn, in milliseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def stage_times(n: int, repeat: int) -> tuple[dict, int]:
    """Stage name -> best time in ms for K_n x K_2, and the largest part's edge count."""
    d = kn_times_k2_decomposition(n)
    largest = max(d.parts, key=lambda g: g.num_edges)
    text = to_json(decomposition_document(d))
    lower = thickness_lower_bound(d.target)
    stages = {
        "target `times_k2(make_complete(n))`": lambda: times_k2(make_complete(n)),
        "`kn_times_k2_decomposition(n)`, target included": lambda: kn_times_k2_decomposition(n),
        "`verify_decomposition` with `d.images`":
            lambda: verify_decomposition(d.target, d.parts, images=d.images),
        "`verify_decomposition` without images, as in `verify PATH`":
            lambda: verify_decomposition(d.target, d.parts, lower=lower),
        "LR test of the largest part": lambda: is_planar(largest),
        "emit (`decomposition_document` + `to_json`)":
            lambda: to_json(decomposition_document(d)),
        "parse (`json.loads` + `decomposition_from_document`)":
            lambda: decomposition_from_document(json.loads(text)),
    }
    return {name: best_ms(fn, repeat) for name, fn in stages.items()}, largest.num_edges


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", default="64,128,256", help="comma list of n")
    ap.add_argument("--repeat", type=int, default=3, help="runs per stage; the best counts")
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]
    columns, largest = zip(*(stage_times(n, args.repeat) for n in sizes))
    print("| stage | " + " | ".join(f"n = {n}" for n in sizes) + " |")
    print("|---" * (len(sizes) + 1) + "|")
    for name in columns[0]:
        print(f"| {name} | " + " | ".join(f"{col[name]:.1f} ms" for col in columns) + " |")
    print(f"\nlargest part: {' / '.join(map(str, largest))} edges; best of {args.repeat}")


if __name__ == "__main__":
    main()
