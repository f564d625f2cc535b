"""Command-line interface: products, decompositions, verification, bounds, tables.

Every command is a thin wrapper over a library call; the CLI adds only
argument parsing and serialization.  Exit codes: 0 success/PASS, 1
verification FAIL, 2 usage error, 3 I/O or parse error, 4 seed required.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from .bounds import (
    g_times_k2_bounds,
    knn_report,
    knnn_times_k2_report,
    product_bounds_report,
    theta_kn_times_k2,
    theta_knn,
    theta_knnn_times_k2,
    thickness_lower_bound,
    product_lower_bound,
    theta_kmn_times_kpq,
    tripartite_times_k2_bounds,
)
from .constructions import (
    chen_yin_k4p4p,
    kn_times_k2_decomposition,
    knnn_times_k2_decomposition,
    orbit_images,
)
from .errors import (
    DocumentFormatError,
    InvalidSizeError,
    KronthickError,
    PreconditionError,
    SeedInvalidError,
    SeedMismatchError,
    SeedRequiredError,
)
from .graphs import (
    make_complete,
    make_complete_bipartite,
    make_complete_tripartite,
    make_cycle,
    make_path,
)
from .products import kronecker_product
from .serialize import (
    bound_report_document,
    decomposition_document,
    decomposition_from_document,
    graph_document,
    graph_from_document,
    graph_to_dot,
    load_json,
    load_seed_file,
    report_document,
    to_json,
    write_json,
)
from .verification import OPTIMAL, verify_decomposition

SEED_DIR_ENV = "THICKNESS_SEED_DIR"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SEED = 4


# ============================================================
# Argument helpers
# ============================================================


def parse_graph_spec(spec: str):
    """Build a graph from a spec like kn:5, kmn:3,4, knnn:3, path:3, cycle:6, file:PATH."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise PreconditionError(f"graph spec needs a colon, got {spec!r}")
    if kind == "file":
        return graph_from_document(load_json(arg))
    try:
        sizes = [int(tok) for tok in arg.split(",")]
    except ValueError:
        raise PreconditionError(f"sizes in {spec!r} must be integers") from None
    if kind == "kn" and len(sizes) == 1:
        return make_complete(sizes[0])
    if kind == "kmn" and len(sizes) == 2:
        return make_complete_bipartite(sizes[0], sizes[1])
    if kind == "knnn" and len(sizes) == 1:
        n = sizes[0]
        return make_complete_tripartite(n, n, n)
    if kind == "path" and len(sizes) == 1:
        return make_path(sizes[0])
    if kind == "cycle" and len(sizes) == 1:
        return make_cycle(sizes[0])
    raise PreconditionError(f"unknown graph spec {spec!r}")


def parse_size_list(text: str, what: str) -> list[int]:
    """Parse a range 2..20 or a comma list 1,4,5 or a single integer."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise PreconditionError(f"bad {what} range {text!r}") from None
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise PreconditionError(f"bad {what} list {text!r}") from None


def _seed_provider(seed_path: str | None):
    """Seed lookup: explicit --seed wins, else $THICKNESS_SEED_DIR/seed_k{m}_{m}.json;
    one provider reads each file at most once."""
    seed_dir = os.environ.get(SEED_DIR_ENV)
    if seed_path is None and not seed_dir:
        return None
    load = functools.cache(load_seed_file)

    def provide(p: int):
        if seed_path is not None:
            return load(seed_path)
        m = 4 * p + 3
        path = os.path.join(seed_dir, f"seed_k{m}_{m}.json")
        if not os.path.exists(path):
            raise SeedRequiredError(f"no seed file {path} (set by {SEED_DIR_ENV})")
        return load(path)

    return provide


# ============================================================
# Commands
# ============================================================


def cmd_product(args) -> int:
    specs = [args.left]
    if args.right_flag is not None:
        specs.append(args.right_flag)
    if args.right is not None:
        specs.append(args.right)
    if len(specs) != 2:
        print("product needs exactly two graph specs", file=sys.stderr)
        return EXIT_USAGE
    g = parse_graph_spec(specs[0])
    h = parse_graph_spec(specs[1])
    prod = kronecker_product(g, h)
    if args.dot:
        sys.stdout.write(graph_to_dot(prod))
    else:
        sys.stdout.write(to_json(graph_document(prod)))
    return EXIT_PASS


def _decompose(family: str, size: int, seed_provider):
    if family == "kn_x_k2":
        return kn_times_k2_decomposition(size)
    if family == "knn":
        return chen_yin_k4p4p(size)
    if family == "knnn_x_k2":
        return knnn_times_k2_decomposition(size, seed_provider=seed_provider)
    raise PreconditionError(
        f"unknown family {family!r}; expected kn_x_k2, knn or knnn_x_k2"
    )


def _certify(d):
    """d checked against its target's lower bound, its orbit maps and its own claim."""
    return verify_decomposition(
        d.target, d.parts, lower=thickness_lower_bound(d.target), images=orbit_images(d),
        claim=d.guarantee,
    )


def cmd_decompose(args) -> int:
    d = _decompose(args.family, args.size, _seed_provider(args.seed))
    report = _certify(d)
    write_json(decomposition_document(d), sys.stdout.write)
    if not report.passed:
        print(f"verification failed: {report.summary()}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def cmd_verify(args) -> int:
    d = decomposition_from_document(load_json(args.path))
    report = _certify(d)
    if args.quiet:
        print("PASS" if report.passed else "FAIL")
    else:
        sys.stdout.write(to_json(report_document(report)))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_bounds(args) -> int:
    family = args.family
    rest = args.args
    if family == "product":
        if len(rest) != 2:
            raise PreconditionError("bounds product needs two graph specs")
        rep = product_bounds_report(parse_graph_spec(rest[0]), parse_graph_spec(rest[1]))
    else:
        if len(rest) != 1:
            raise PreconditionError(f"bounds {family} needs one size argument")
        sizes = parse_size_list(rest[0], "size")
        if family == "kn_x_k2" and len(sizes) == 1:
            rep = g_times_k2_bounds(make_complete(sizes[0]))
        elif family == "knn" and len(sizes) == 1:
            rep = knn_report(sizes[0])
        elif family == "knnn_x_k2" and len(sizes) == 1:
            rep = knnn_times_k2_report(sizes[0])
        elif family == "kmn_x_k2" and len(sizes) == 2:
            rep = theta_kmn_times_kpq(sizes[0], sizes[1], 1, 1)
        elif family == "kmn_x_kpq" and len(sizes) == 4:
            rep = theta_kmn_times_kpq(*sizes)
        elif family == "klmn_x_k2" and len(sizes) == 3:
            rep = tripartite_times_k2_bounds(*sorted(sizes))
        else:
            raise PreconditionError(f"unknown bounds family/arity: {family} {rest}")
    sys.stdout.write(to_json(bound_report_document(rep)))
    return EXIT_PASS


def _table_row(family: str, n: int, seed_provider):
    """(lower, parts, upper, optimal) for one table row; raises on unsupported."""
    d = _decompose(family, n, seed_provider)
    if family == "kn_x_k2":
        lower = product_lower_bound(make_complete(n), make_complete(2))
        upper = theta_kn_times_k2(n)
    elif family == "knn":
        lower = theta_knn(4 * n)
        upper = n + 1
    else:  # knnn_x_k2: _decompose rejects every other family
        lower = upper = theta_knnn_times_k2(n)
    report = verify_decomposition(d.target, d.parts, lower=lower, images=orbit_images(d))
    return lower, len(d.parts), upper, "yes" if report.optimality == OPTIMAL else "no"


def cmd_table(args) -> int:
    sizes = parse_size_list(args.range, "table")
    header = ("n", "lower", "parts", "upper", "optimal")
    seeds = _seed_provider(args.seed)
    rows = []
    for n in sizes:
        try:
            lower, parts, upper, optimal = _table_row(args.family, n, seeds)
            rows.append((str(n), str(lower), str(parts), str(upper), optimal))
        except (SeedRequiredError, SeedMismatchError):
            # no seed for this row's p: a --seed file serves only its own
            rows.append((str(n), "-", "-", "-", "UNSUPPORTED"))
    if args.csv:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return EXIT_PASS


# ============================================================
# Entry point
# ============================================================


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kronthick",
        description="Planar decompositions and thickness bounds for Kronecker products.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="Kronecker product of two graphs")
    p.add_argument("left", help="graph spec: kn:5, kmn:3,4, knnn:3, path:3, cycle:6, file:PATH")
    p.add_argument("right", nargs="?", default=None, help="second graph spec")
    p.add_argument("--right", dest="right_flag", default=None, help="second graph spec")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("decompose", help="build and verify a planar decomposition")
    p.add_argument("family", help="kn_x_k2 (size n), knn (size p), knnn_x_k2 (size n)")
    p.add_argument("size", type=int)
    p.add_argument("--seed", default=None, help="seed decomposition file for knnn_x_k2")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="verify a decomposition document")
    p.add_argument("path")
    p.add_argument("--quiet", action="store_true", help="print only PASS or FAIL")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bounds", help="thickness bounds for a family or product")
    p.add_argument("family",
                   help="kn_x_k2, knn, knnn_x_k2, kmn_x_k2, kmn_x_kpq, klmn_x_k2, product")
    p.add_argument("args", nargs="*", help="sizes (e.g. 8 or 3,7) or two graph specs")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("table", help="lower/parts/upper table over a size range")
    p.add_argument("family", help="kn_x_k2 (n), knn (p), knnn_x_k2 (n)")
    p.add_argument("range", help="range 2..20, list 1,4,5 or single size")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--seed", default=None, help="seed decomposition file for knnn_x_k2")
    p.set_defaults(fn=cmd_table)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # The commands' JSON trees, graphs and reports hold no cycle, so a pass
    # would only rescan the live heap.  The parser above and the nested
    # functions of serialize._chunks, which keep a document's memos alive,
    # do; they wait for the first pass after main restores the collector.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except SeedRequiredError as exc:
        print(f"seed required: {exc}", file=sys.stderr)
        return EXIT_SEED
    except (DocumentFormatError, SeedInvalidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidSizeError, PreconditionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KronthickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
