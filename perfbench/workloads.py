"""The benchmark's three workloads: inputs, set-up, ops and output checks.

Every op is one closed-loop request: the caller issues the next op only
after the previous one returned.  CLI ops run ``kronthick.cli.main(argv)``
in-process with stdout captured; search ops call
``kronthick.exact_thickness``.  Each op carries the reference its output
must match, and ``check`` turns an outcome into a list of problems (empty
when the op is correct).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SEED_FILE = os.path.join("src", "kronthick", "data", "seed_k7_7.json")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# Fixed oracle budget: K8 x K2 needs 43,814 nodes; the wall limit is far
# above any instance's need, so time never decides an outcome.
SEARCH_MAX_NODES = 200_000
SEARCH_WALL_LIMIT = 3600.0

DEFECT_CLASSES = ("missing", "extra", "overlap", "nonplanar")
REPORT_FIELDS = ("coverage_missing", "coverage_extra", "overlap", "nonplanar_parts")


@dataclass
class Op:
    """One request of a workload and the reference its output must match."""

    name: str
    edges: int  # target edges the op decomposes, verifies or searches
    expect: dict
    argv: list | None = None  # CLI ops
    graph: object | None = None  # search ops: a kronthick Graph
    warmup: bool = False  # also issued in the untimed warm-up pass


@dataclass
class Outcome:
    """What an op returned, reduced right after the op to what checks need."""

    exit: int | None = None
    sha256: str | None = None
    report: dict | None = None  # parsed verify report, for mutants
    status: str | None = None
    value: int | None = None
    witness: list = field(default_factory=list)  # part edge lists


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ============================================================
# Issuing ops
# ============================================================


def issue(op: Op, tracer=None):
    """The timed part of an op: the raw result, unreduced.

    CLI ops return (exit code, stdout text).  With a tracer, the call into
    kronthick is itself a span, so the CLI's and oracle's self time show.
    """
    import kronthick
    from kronthick import cli
    from kronthick.oracle import SearchBudget

    if op.argv is not None:
        main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main", None, None)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
        return code, out.getvalue()
    search = kronthick.exact_thickness
    if tracer is not None:
        search = tracer.wrap(search, "oracle.exact_thickness", None, None)
    return search(op.graph, SearchBudget(max_nodes=SEARCH_MAX_NODES, wall_limit=SEARCH_WALL_LIMIT))


def reduce_outcome(op: Op, raw) -> Outcome:
    """The untimed part: keep only what the checks need."""
    if op.argv is not None:
        code, text = raw
        report = None
        if "defects" in op.expect:
            try:
                report = json.loads(text)
            except ValueError:
                report = None
        return Outcome(exit=code, sha256=digest(text), report=report)
    witness = []
    if raw.witness is not None:
        witness = [[(a.name, b.name) for a, b in part.edges] for part in raw.witness.parts]
    return Outcome(status=raw.status, value=raw.value, witness=witness)


# ============================================================
# Checks
# ============================================================


def _pair(e) -> tuple:
    return tuple(sorted(e))


def _normal_report(report: dict) -> dict:
    """Report defect fields with every edge as a sorted name pair."""
    return {
        "coverage_missing": sorted(_pair(e) for e in report.get("coverage_missing", [])),
        "coverage_extra": sorted(_pair(e) for e in report.get("coverage_extra", [])),
        "overlap": sorted(
            (_pair(o["edge"]), tuple(o["parts"])) for o in report.get("overlap", [])
        ),
        "nonplanar_parts": sorted(report.get("nonplanar_parts", [])),
    }


def check(op: Op, out: Outcome) -> list[str]:
    """Problems with an op's outcome against its reference; empty means correct."""
    exp = op.expect
    problems = []
    if "status" in exp:
        if out.status != exp["status"] or out.value != exp["value"]:
            problems.append(f"oracle gave {out.status} {out.value}, want {exp['status']} {exp['value']}")
        elif not witness_is_valid(op.graph, out.witness, exp["value"]):
            problems.append("witness is not an exact cover by planar parts (networkx)")
        return problems
    if out.exit != exp["exit"]:
        problems.append(f"exit {out.exit}, want {exp['exit']}")
    if "sha256" in exp and out.sha256 != exp["sha256"]:
        problems.append("stdout digest differs from the reference")
    if "defects" in exp:
        if not isinstance(out.report, dict) or out.report.get("passed") is not False:
            problems.append("report does not say FAIL")
        elif _normal_report(out.report) != _normal_report(exp["defects"]):
            problems.append("report names other defects than the injected one")
    return problems


def witness_is_valid(graph, witness, k) -> bool:
    """networkx's check: k planar parts that cover the graph's edges exactly."""
    import networkx as nx

    want = sorted(_pair((a.name, b.name)) for a, b in graph.edges)
    got = sorted(_pair(e) for part in witness for e in part)
    if len(witness) != k or got != want:
        return False
    return all(nx.check_planarity(nx.Graph(part))[0] for part in witness)


def corrupted(op: Op, out: Outcome) -> list[tuple[str, Op, Outcome]]:
    """Variants the checker must reject: a corrupted reference and a flipped verdict."""
    exp = op.expect
    variants = []
    if "sha256" in exp:
        bad = ("0" if exp["sha256"][0] != "0" else "1") + exp["sha256"][1:]
        variants.append(("corrupted reference", Op(op.name, op.edges, {**exp, "sha256": bad}, argv=op.argv), out))
    if "status" in exp:
        bad_ref = Op(op.name, op.edges, {**exp, "value": exp["value"] + 1}, graph=op.graph)
        variants.append(("corrupted reference", bad_ref, out))
        flipped = Outcome(status="TIMEOUT", value=None, witness=out.witness)
    else:
        report = out.report
        if isinstance(report, dict):
            report = {**report, "passed": not report.get("passed")}
        flipped = Outcome(exit=1 - out.exit if out.exit in (0, 1) else 0, sha256=out.sha256, report=report)
    variants.append(("flipped verdict", op, flipped))
    return variants


# ============================================================
# build
# ============================================================


def _kn_x_k2_edges(n: int) -> int:
    return n * (n - 1)


def build_ops(seed: int, ref: dict) -> list[Op]:
    """Decompose commands and one table sweep; the seed sets the issue order."""
    specs = [
        ("decompose kn_x_k2 64", ["decompose", "kn_x_k2", "64"], _kn_x_k2_edges(64), True),
        ("decompose kn_x_k2 128", ["decompose", "kn_x_k2", "128"], _kn_x_k2_edges(128), False),
        ("decompose kn_x_k2 256", ["decompose", "kn_x_k2", "256"], _kn_x_k2_edges(256), False),
        ("decompose knnn_x_k2 41", ["decompose", "knnn_x_k2", "41"], 6 * 41 * 41, False),
        ("decompose knnn_x_k2 7 --seed", ["decompose", "knnn_x_k2", "7", "--seed", SEED_FILE], 6 * 7 * 7, True),
        ("decompose knn 16", ["decompose", "knn", "16"], 16 * 16 * 16, True),
        ("table kn_x_k2 2..24", ["table", "kn_x_k2", "2..24"], sum(_kn_x_k2_edges(n) for n in range(2, 25)), True),
    ]
    ops = [Op(name, edges, ref["build"][name], argv=argv, warmup=warm)
           for name, argv, edges, warm in specs]
    random.Random(f"build-{seed}").shuffle(ops)
    return ops


# ============================================================
# verify
# ============================================================

# Clean documents: (name, construction call, build-workload op whose stdout is the same document)
CLEAN_DOCS = (
    ("kn_x_k2_256", ("kn_x_k2", 256), "decompose kn_x_k2 256"),
    ("knnn_x_k2_41", ("knnn_x_k2", 41), "decompose knnn_x_k2 41"),
    ("knn_16", ("knn", 16), "decompose knn 16"),
)
MUTANT_BASES = (
    ("kn_x_k2_64", ("kn_x_k2", 64), "decompose kn_x_k2 64"),
    ("knnn_x_k2_41", ("knnn_x_k2", 41), "decompose knnn_x_k2 41"),
)


def _decomposition_text(family: str, size: int) -> str:
    from kronthick import chen_yin_k4p4p, kn_times_k2_decomposition, knnn_times_k2_decomposition
    from kronthick.serialize import decomposition_document, to_json

    build = {"kn_x_k2": kn_times_k2_decomposition, "knn": chen_yin_k4p4p,
             "knnn_x_k2": knnn_times_k2_decomposition}[family]
    return to_json(decomposition_document(build(size)))


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _is_planar_nx(part_edges) -> bool:
    import networkx as nx

    return nx.check_planarity(nx.Graph([tuple(e) for e in part_edges]))[0]


def _vertex_objects(doc) -> dict:
    """Vertex name -> vertex object, from the target's vertex list."""
    names = {}
    for obj in doc["target"]["vertices"]:
        fam = "p" if obj["family"] == "Plain" else obj["family"].lower()
        names[f"{fam}{obj.get('layer', '')}_{obj['index']}"] = obj
    return names


def _add_edge(doc, j: int, e) -> None:
    """Put edge e into part j (a new part when j == len(parts)), adding its endpoints."""
    parts = doc["parts"]
    if j == len(parts):
        parts.append({"vertices": [], "edges": []})
    part = parts[j]
    objs = _vertex_objects(doc)
    present = {json.dumps(v, sort_keys=True) for v in part["vertices"]}
    for name in e:
        key = json.dumps(objs[name], sort_keys=True)
        if key not in present:
            part["vertices"].append(objs[name])
            present.add(key)
    part["edges"].append(list(e))


def _receiving_part(doc, rng, e, skip: int, want_planar: bool):
    """A part j != skip whose planarity after gaining e is want_planar (networkx)."""
    order = [j for j in range(len(doc["parts"])) if j != skip]
    rng.shuffle(order)
    for j in order:
        if _is_planar_nx(doc["parts"][j]["edges"] + [list(e)]) == want_planar:
            return j
    return None


def _non_edge(doc, rng, tries: int = 400):
    """(part, pair): a non-target pair two steps apart in a part that stays planar with it."""
    target = {_pair(e) for e in doc["target"]["edges"]}
    parts = doc["parts"]
    for _ in range(tries):
        i = rng.randrange(len(parts))
        adj: dict = {}
        for a, b in parts[i]["edges"]:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        a = rng.choice(sorted(adj))
        b = rng.choice(adj[a])
        c = rng.choice(adj[b])
        pair = _pair((a, c))
        if a != c and pair not in target and _is_planar_nx(parts[i]["edges"] + [list(pair)]):
            return i, pair
    return None


def make_mutant(text: str, cls: str, rng: random.Random):
    """One defect of class cls injected into a clean document.

    Returns (mutant text, the report's expected defect fields).  Every
    planarity claim behind the expectation is checked with networkx.
    """
    doc = json.loads(text)
    parts = doc["parts"]
    i = rng.randrange(len(parts))
    e = _pair(rng.choice(parts[i]["edges"]))
    defects = {f: [] for f in REPORT_FIELDS}
    if cls == "missing":
        parts[i]["edges"] = [x for x in parts[i]["edges"] if _pair(x) != e]
        defects["coverage_missing"] = [list(e)]
    elif cls == "extra":
        found = _non_edge(doc, rng)
        if found is None:
            raise RuntimeError("no planar-preserving non-target edge found")
        j, pair = found
        _add_edge(doc, j, pair)
        defects["coverage_extra"] = [list(pair)]
    elif cls == "overlap":
        j = _receiving_part(doc, rng, e, skip=i, want_planar=True)
        if j is None:
            j = len(parts)  # every part would turn non-planar: duplicate into a new part
        _add_edge(doc, j, e)
        defects["overlap"] = [{"edge": list(e), "parts": sorted((i, j))}]
    elif cls == "nonplanar":
        j = _receiving_part(doc, rng, e, skip=i, want_planar=False)
        if j is None:
            raise RuntimeError("no part turns non-planar on gaining the edge")
        parts[i]["edges"] = [x for x in parts[i]["edges"] if _pair(x) != e]
        _add_edge(doc, j, e)
        defects["nonplanar_parts"] = [j]
    else:
        raise ValueError(f"unknown defect class {cls!r}")
    return _dump(doc), defects


def prepare_verify_corpus(workdir: str, seed: int, ref: dict) -> dict:
    """Write the verify corpus under workdir; returns its manifest.

    Clean documents come from the library constructions and must match the
    build workload's reference digests byte for byte; a mismatch is listed
    in the manifest and counted as a failed op.
    """
    os.makedirs(workdir, exist_ok=True)
    manifest = {"docs": [], "mismatched": []}

    def write(name: str, text: str, edges: int, expect: dict) -> None:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        manifest["docs"].append({"name": name, "path": path, "edges": edges, "expect": expect})

    texts = {}
    for name, (family, size), build_op in CLEAN_DOCS + MUTANT_BASES:
        if name in texts:
            continue
        texts[name] = _decomposition_text(family, size)
        if digest(texts[name]) != ref["build"][build_op]["sha256"]:
            manifest["mismatched"].append(name)
    with open(os.path.join(ROOT, SEED_FILE), encoding="utf-8") as fh:
        texts["seed_k7_7"] = fh.read()

    for name in [n for n, _, _ in CLEAN_DOCS] + ["seed_k7_7"]:
        edges = len(json.loads(texts[name])["target"]["edges"])
        write(name, texts[name], edges, ref["verify"][name])
    for base, _, _ in MUTANT_BASES:
        edges = len(json.loads(texts[base])["target"]["edges"])
        for cls in DEFECT_CLASSES:
            rng = random.Random(f"verify-{seed}-{base}-{cls}")
            text, defects = make_mutant(texts[base], cls, rng)
            write(f"{base}_{cls}", text, edges, {"exit": 1, "defects": defects})
    return manifest


def verify_ops(manifest: dict, seed: int) -> list[Op]:
    ops = [Op(f"verify {d['name']}", d["edges"], d["expect"], argv=["verify", d["path"]],
              warmup=d["name"] == "seed_k7_7" or d["name"].startswith("kn_x_k2_64_"))
           for d in manifest["docs"]]
    random.Random(f"verify-order-{seed}").shuffle(ops)
    return ops


# ============================================================
# search
# ============================================================


def _gnm(n: int, m: int, rng: random.Random):
    from kronthick import Family, Graph, VertexLabel

    vs = [VertexLabel(Family.PLAIN, i) for i in range(1, n + 1)]
    pairs = [(vs[a], vs[b]) for a in range(n) for b in range(a + 1, n)]
    return Graph(vs, rng.sample(pairs, m))


def search_ops(seed: int, ref: dict) -> list[Op]:
    """Named instances with committed answers, plus three seeded G(12, 64).

    The seeded graphs have 64 edges on 12 vertices, just past the two-part
    capacity 2(3n-6) = 60, so the counting bound says 3 and a 3-part
    witness (checked by networkx) settles the answer.  Seeded graphs below
    that capacity are left out: their search cost is heavy-tailed (some
    need more than 30k nodes), so it would vary with the seed.
    """
    import networkx as nx
    from kronthick import make_complete, make_complete_bipartite, make_complete_tripartite, times_k2

    named = {
        "K5xK2": times_k2(make_complete(5)),
        "K6xK2": times_k2(make_complete(6)),
        "K7xK2": times_k2(make_complete(7)),
        "K8xK2": times_k2(make_complete(8)),
        "K_6,6": make_complete_bipartite(6, 6),
        "K_3,3,3": make_complete_tripartite(3, 3, 3),
    }
    ops = [Op(name, g.num_edges, ref["search"][name], graph=g, warmup=name != "K8xK2")
           for name, g in named.items()]
    rng = random.Random(f"search-{seed}")
    n, m = 12, 64
    lower = -(-m // (3 * n - 6))
    for k in range(3):
        ops.append(Op(f"G({n},{m})#{k}", m, {"status": "EXACT", "value": lower},
                      graph=_gnm(n, m, rng), warmup=True))
    for op in ops:
        g = nx.Graph([(a.name, b.name) for a, b in op.graph.edges])
        if nx.check_planarity(g)[0]:
            raise RuntimeError(f"search instance {op.name} is planar")
    rng.shuffle(ops)
    return ops
