from __future__ import annotations

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kronthick

from kronthick.constructions import (
    chen_yin_k4p4p,
    kn_times_k2_decomposition,
    validate_seed,
)
from kronthick.errors import DocumentFormatError, SeedInvalidError
from kronthick.graphs import (
    Graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    remove_edges,
)
from kronthick.products import kronecker_product
from kronthick.serialize import (
    FORMAT_VERSION,
    bound_report_document,
    decomposition_document,
    decomposition_from_document,
    graph_document,
    graph_from_document,
    graph_to_dot,
    load_json,
    load_seed_file,
    report_document,
    seed_from_document,
    to_json,
)
from kronthick.bounds import g_times_k2_bounds
from kronthick.verification import verify_decomposition

SEED_PATH = str(
    importlib.resources.files("kronthick").joinpath("data").joinpath("seed_k7_7.json")
)


# ============================================================
# Graph documents
# ============================================================


def test_graph_roundtrip():
    g = make_complete_bipartite(3, 4)
    doc = graph_document(g)
    assert doc["format_version"] == FORMAT_VERSION
    assert graph_from_document(doc) == g


def test_graph_roundtrip_byte_stable():
    g = make_cycle(7)
    once = to_json(graph_document(g))
    again = to_json(graph_document(graph_from_document(json.loads(once))))
    assert once == again


def test_product_vertices_roundtrip():
    prod = kronecker_product(make_cycle(3), make_cycle(4))
    assert graph_from_document(graph_document(prod)) == prod


def test_graph_document_rejects_duplicates():
    g = make_complete(3)
    doc = graph_document(g)
    doc["vertices"] = doc["vertices"] + [doc["vertices"][0]]
    with pytest.raises(DocumentFormatError):
        graph_from_document(doc)


def test_graph_document_rejects_unknown_edge_refs():
    doc = graph_document(make_complete(3))
    doc["edges"] = doc["edges"] + [["p_1", "p_99"]]
    with pytest.raises(DocumentFormatError):
        graph_from_document(doc)


def test_graph_document_rejects_wrong_version():
    doc = graph_document(make_complete(3))
    doc["format_version"] = "999"
    with pytest.raises(DocumentFormatError):
        graph_from_document(doc)


def test_load_json_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentFormatError):
        load_json(str(bad))


# ============================================================
# Decomposition documents
# ============================================================


def test_decomposition_roundtrip():
    d = chen_yin_k4p4p(2)
    doc = decomposition_document(d)
    back = decomposition_from_document(doc)
    assert back.target == d.target
    assert back.parts == d.parts
    assert back.guarantee == d.guarantee
    assert back.provenance == d.provenance


def test_decomposition_roundtrip_byte_stable():
    d = kn_times_k2_decomposition(9)
    once = to_json(decomposition_document(d))
    again = to_json(decomposition_document(decomposition_from_document(json.loads(once))))
    assert once == again


# ============================================================
# Reports
# ============================================================


def test_report_document_failing_case():
    d = chen_yin_k4p4p(1)
    parts = list(d.parts)
    victim = parts[0].edges[0]
    parts[0] = remove_edges(parts[0], [victim])
    rep = verify_decomposition(d.target, parts)
    doc = report_document(rep)
    assert doc["passed"] is False
    assert len(doc["coverage_missing"]) == 1
    assert doc["coverage_missing"][0] == sorted([victim[0].name, victim[1].name])


def test_bound_report_document():
    doc = bound_report_document(g_times_k2_bounds(make_complete(8)))
    assert doc == {
        "exact": 2,
        "lower": 2,
        "provenance": ["THM_3_4"],
        "upper": 2,
    }


# ============================================================
# Seeds
# ============================================================


def test_bundled_seed_loads():
    seed = load_seed_file(SEED_PATH)
    assert seed.target == make_complete_bipartite(7, 7)
    assert len(seed.parts) == 3
    assert seed.parts[-1].num_edges == 1


def test_seed_rejects_wrong_side_size():
    # K_{8,8} is not of the form K_{4p+3,4p+3}
    d = chen_yin_k4p4p(2)
    with pytest.raises(SeedInvalidError):
        seed_from_document(decomposition_document(d))


def test_seed_rejects_missing_single_edge_part():
    doc = load_json(SEED_PATH)
    doc["parts"] = doc["parts"][:-1]
    seed = seed_from_document(doc)
    with pytest.raises(SeedInvalidError):
        validate_seed(seed)


# ============================================================
# JSON and DOT text
# ============================================================


def test_to_json_is_sorted_and_newline_terminated():
    text = to_json({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'


def test_dot_output():
    g = make_complete_bipartite(1, 2)
    dot = graph_to_dot(g)
    assert dot.startswith("graph G {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == g.num_edges
    for v in g.vertices:
        assert f'"{v.name}"' in dot


def test_dot_deterministic():
    g = make_cycle(9)
    assert graph_to_dot(g) == graph_to_dot(g)


# ============================================================
# Byte identity of the bundled data
# ============================================================

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_FILES = sorted(
    str(p) for p in importlib.resources.files("kronthick").joinpath("data").iterdir()
    if p.name.endswith(".json")
)


def test_make_fixtures_check_passes():
    # the fixture script rebuilds the bundled n = 1, 3, 5 files and
    # compares them byte for byte with what ships
    src = Path(kronthick.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "make_fixtures.py"), "--check"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("path", DATA_FILES, ids=lambda p: Path(p).name)
def test_bundled_documents_reemit_byte_for_byte(path):
    text = Path(path).read_text(encoding="utf-8")
    doc = decomposition_from_document(json.loads(text))
    assert to_json(decomposition_document(doc)) == text
