#!/usr/bin/env python3
"""Per-stage timings of the K_n x K_2 pipeline, as a markdown table.

Each stage runs in this process, best of --repeat runs, for each size:

- target: ``times_k2(make_complete(n))``;
- build: ``kn_times_k2_decomposition(n)``, its target included;
- verify with moves: ``orbit_images`` then ``verify_decomposition``, as
  ``decompose`` runs them;
- verify without moves, which LR-tests every part;
- LR: ``is_planar`` on the part with the most edges;
- emit: ``write_json(decomposition_document(d), write)``, streamed into a
  file on the null device as ``decompose`` streams it into stdout;
- parse: ``json.loads`` and ``decomposition_from_document``;
- ``verify PATH`` after the file read: parse, ``orbit_images``, then
  ``verify_decomposition`` with the lower bound and the document's claim;
- ``kronthick verify PATH``: ``cli.main(["verify", path])`` on the
  document written to a temporary file, stdout captured, so the file
  read counts too;
- the ``tracemalloc`` peak of ``cli.main(["decompose", "kn_x_k2", n])``
  with stdout discarded, measured once: the most memory the command
  allocates on top of what was live before it.

A footer line times the K_{n,n,n} x K_2 builders the same way: the build
of ``knnn_times_k2_decomposition(41)``, its ``verify_decomposition`` with
``orbit_images``, and the n = 7 build from the bundled K_{7,7} seed.

Every stage runs with the cyclic garbage collector paused, as each
``kronthick`` command runs, so the in-process rows add up to the
whole-command row; the collector's state is restored at the end.

Run from the repository root:

    PYTHONPATH=src python3 scripts/stage_times.py [--sizes 64,128,256] [--repeat 3]
"""

import argparse
import contextlib
import gc
import io
import json
import os
import tempfile
import time
import tracemalloc
from importlib import resources

from kronthick import (
    is_planar,
    kn_times_k2_decomposition,
    knnn_times_k2_decomposition,
    make_complete,
    orbit_images,
    thickness_lower_bound,
    times_k2,
    verify_decomposition,
)
from kronthick.cli import main as cli_main
from kronthick.serialize import (
    decomposition_document,
    decomposition_from_document,
    load_seed_file,
    to_json,
    write_json,
)


def best_ms(fn, repeat: int) -> float:
    """The fastest of repeat calls of fn, in milliseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def decompose_peak_mb(n: int, null) -> float:
    """The tracemalloc peak of ``kronthick decompose kn_x_k2 n``, stdout into null, in MB."""
    with contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            if cli_main(["decompose", "kn_x_k2", str(n)]) != 0:
                raise SystemExit(f"decompose kn_x_k2 {n} did not pass")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / 2**20


def stage_times(n: int, repeat: int, workdir: str, null) -> tuple[dict, int]:
    """Stage name -> table cell for K_n x K_2, and the largest part's edge count.

    null is a text file on the null device, the sink of every written document.
    """
    d = kn_times_k2_decomposition(n)
    largest = max(d.parts, key=lambda g: g.num_edges)
    text = to_json(decomposition_document(d))
    lower = thickness_lower_bound(d.target)

    def verify_path():
        e = decomposition_from_document(json.loads(text))
        verify_decomposition(e.target, e.parts, lower=thickness_lower_bound(e.target),
                             images=orbit_images(e), claim=e.guarantee)

    path = os.path.join(workdir, f"kn_x_k2_{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    def verify_command():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["verify", path]) != 0:
                raise SystemExit(f"verify {path} did not pass")

    stages = {
        "target `times_k2(make_complete(n))`": lambda: times_k2(make_complete(n)),
        "`kn_times_k2_decomposition(n)`, target included": lambda: kn_times_k2_decomposition(n),
        "`verify_decomposition` with `orbit_images(d)`, as in `decompose`":
            lambda: verify_decomposition(d.target, d.parts, images=orbit_images(d)),
        "`verify_decomposition` without images (every part LR-tested)":
            lambda: verify_decomposition(d.target, d.parts, lower=lower),
        "LR test of the largest part": lambda: is_planar(largest),
        "emit (`decomposition_document` + `write_json` to a null file)":
            lambda: write_json(decomposition_document(d), null.write),
        "parse (`json.loads` + `decomposition_from_document`)":
            lambda: decomposition_from_document(json.loads(text)),
        "`verify PATH` after the read: parse, `orbit_images`, verify": verify_path,
        "`kronthick verify PATH` (`cli.main`, file read included)": verify_command,
    }
    cells = {name: f"{best_ms(fn, repeat):.1f} ms" for name, fn in stages.items()}
    cells["`kronthick decompose kn_x_k2 n` peak (`tracemalloc`, stdout discarded)"] = (
        f"{decompose_peak_mb(n, null):.1f} MB")
    return cells, largest.num_edges


def tripartite_line(repeat: int) -> str:
    """The footer: the K_{n,n,n} x K_2 build at 41 and its verify, and the seeded build at 7."""
    d = knnn_times_k2_decomposition(41)
    seed = load_seed_file(resources.files("kronthick").joinpath("data", "seed_k7_7.json"))
    build, verify, seeded = (best_ms(fn, repeat) for fn in (
        lambda: knnn_times_k2_decomposition(41),
        lambda: verify_decomposition(d.target, d.parts, images=orbit_images(d)),
        lambda: knnn_times_k2_decomposition(7, lambda p: seed),
    ))
    return (f"K_{{n,n,n}} x K_2: build n = 41 {build:.1f} ms, verify with `orbit_images` "
            f"{verify:.1f} ms; seeded build n = 7 {seeded:.1f} ms")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", default="64,128,256", help="comma list of n")
    ap.add_argument("--repeat", type=int, default=3, help="runs per stage; the best counts")
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]
    collecting = gc.isenabled()
    gc.disable()
    try:
        with tempfile.TemporaryDirectory() as workdir, open(os.devnull, "w") as null:
            columns, largest = zip(*(stage_times(n, args.repeat, workdir, null)
                                     for n in sizes))
        tripartite = tripartite_line(args.repeat)
    finally:
        if collecting:
            gc.enable()
    print("| stage | " + " | ".join(f"n = {n}" for n in sizes) + " |")
    print("|---" * (len(sizes) + 1) + "|")
    for name in columns[0]:
        print(f"| {name} | " + " | ".join(col[name] for col in columns) + " |")
    print(f"\nlargest part: {' / '.join(map(str, largest))} edges; best of {args.repeat}")
    print(tripartite)


if __name__ == "__main__":
    main()
