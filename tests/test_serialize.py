from __future__ import annotations

import importlib.resources
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kronthick

from kronthick.cli import main
from kronthick.constructions import (
    Decomposition,
    chen_yin_k4p4p,
    kn_times_k2_decomposition,
    knnn_times_k2_decomposition,
    validate_seed,
)
from kronthick.errors import DocumentFormatError, SeedInvalidError
from kronthick.graphs import (
    Graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
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
    write_json,
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


def _text_mode_outcome(path):
    """What parsing the file read in text mode gives: the value, or the error text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        return f"invalid JSON in {path}: {exc}"


_FILE_CONTENTS = {
    "lf": b'{"a": [1, "x"],\n "b": null}\n',
    "crlf": b'{"a": [1, "x"],\r\n "b": null}\r\n',
    "cr": b'{"a": [1, "x"],\r "b": null}\r',
    "cr-in-string": b'{"a": "x\ry"}',
    "crlf-then-error": b'{"a": 1,\r\n\r\n "b": }',
    "non-ascii": '{"é": "☃"}'.encode("utf-8"),
    "bom": b"\xef\xbb\xbf{}",
    "non-utf8": b'{"a": 1}\n\xff\xfe',
    "empty": b"",
}


@pytest.mark.parametrize("content", _FILE_CONTENTS)
def test_load_json_reads_as_text_mode_would(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(_FILE_CONTENTS[content])
    expected = _text_mode_outcome(path)
    try:
        got = load_json(str(path))
    except DocumentFormatError as exc:
        got = str(exc)
    assert got == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_json_reads_a_pipe(tmp_path):
    path = tmp_path / "doc.fifo"
    os.mkfifo(path)
    writer = subprocess.Popen(
        [sys.executable, "-c", "import sys; open(sys.argv[1], 'w').write('{\"a\": [1]}\\r\\n')", str(path)]
    )
    try:
        assert load_json(str(path)) == {"a": [1]}
    finally:
        writer.wait(timeout=60)


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


def test_shuffled_edge_lists_parse_to_the_same_graphs():
    doc = decomposition_document(kn_times_k2_decomposition(9))
    d = decomposition_from_document(doc)
    rng = random.Random(9)
    for g in (doc["target"], *doc["parts"]):
        rng.shuffle(g["edges"])
        g["edges"] = [e[::-1] if rng.random() < 0.5 else e for e in g["edges"]]
    shuffled = decomposition_from_document(doc)
    assert shuffled.target == d.target
    assert shuffled.parts == d.parts


def test_part_listing_the_targets_vertices_reversed_parses_the_same():
    doc = decomposition_document(kn_times_k2_decomposition(12))
    d = decomposition_from_document(doc)
    # a part that lists the target's vertices takes the target's labels
    assert all(p.vertices is d.target.vertices for p in d.parts)
    assert doc["parts"][1]["vertices"] == doc["target"]["vertices"]
    doc["parts"][1]["vertices"].reverse()
    assert decomposition_from_document(doc).parts == d.parts


@pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "float"])
def test_part_equal_to_the_targets_vertices_but_for_a_type_exits_3(bad, tmp_path, capsys):
    # 1 == True == 1.0, so the part's list still equals the target's
    doc = decomposition_document(kn_times_k2_decomposition(9))
    obj = doc["parts"][2]["vertices"][0]
    assert obj["index"] == 1
    obj["index"] = bad
    assert doc["parts"][2]["vertices"] == doc["target"]["vertices"]
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad vertex object {obj!r}\n"


# ============================================================
# Reports
# ============================================================


def test_report_document_failing_case():
    d = chen_yin_k4p4p(1)
    parts = list(d.parts)
    victim = parts[0].edges[0]
    parts[0] = Graph(parts[0].vertices, [e for e in parts[0].edges if e != victim])
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


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _streamed(doc) -> list[str]:
    """The pieces that write_json hands to its write function."""
    chunks: list[str] = []
    write_json(doc, chunks.append)
    return chunks


# Values that compare equal but print differently (1 / True / 1.0,
# 0 / False / 0.0 / -0.0), and strings that need escapes or are not ASCII.
_TRICKY_SCALARS = [
    0, 1, -1, True, False, 0.0, -0.0, 1.0, float("nan"), float("inf"),
    float("-inf"), None, "", "1", "true", "\u00e9", "\n\t", '"\\', "\x00\x1f",
    "\u2028", "\U0001f600",
]
_scalars = st.one_of(
    st.sampled_from(_TRICKY_SCALARS), st.none(), st.booleans(), st.integers(),
    st.floats(), st.text(),
)
_pairs = st.one_of(st.lists(st.text(), min_size=2, max_size=2), st.tuples(st.text(), st.text()))
# Small flat objects drawn from a few keys and the tricky scalars, so one
# document often holds objects that differ only by 1 / True / 1.0.
_flat_objects = st.dictionaries(
    st.sampled_from(["a", "b", "index"]), st.sampled_from(_TRICKY_SCALARS), max_size=3
)
_json_values = st.recursive(
    st.one_of(_scalars, _pairs, _flat_objects),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.lists(st.one_of(_pairs, _flat_objects, children), max_size=8),
    ),
    max_leaves=40,
)


@given(_json_values)
@example([{"a": 1}, {"a": True}, {"a": 1.0}, {"a": 0}, {"a": False}, {"a": 0.0}, {"a": -0.0}])
@example({"o": {"index": 1}, "p": [{"family": "U", "index": 1}, {"family": "U", "index": True},
                                   {"family": "U", "index": 1.0}, {"family": "U", "index": "1"}],
          "q": {"index": True}, "r": [{"index": 1.0}, {"index": 1}]})
# the same names as edge ends at two depths, and as first and as second end
@example({"e": [["a", "b"], ["b", "a"]], "f": [[["b", "a"], ["a", "\u00e9"]]],
          "g": {"h": [("a", "b")]}})
@example({"x": [[], {}, [[{}]], ["p", "q"], ("r", "s"), ["t", 1], "u"], "y": ()})
# lists of objects as top-level members, which write_json streams item by item
@example({"a": [{}], "b": ({"c": [1]}, {"d": None}), "c": [{"i": 1}, {"i": True}]})
def test_to_json_matches_json_dumps(value):
    assert "".join(_streamed(value)) == to_json(value) == _dumps(value)


def _seed(p):
    return load_seed_file(SEED_PATH)


def _product_vertex_decomposition():
    prod = kronecker_product(make_cycle(3), make_complete(3))
    return Decomposition(prod, (prod, prod), "", "")


# Every builder: kn_x_k2 at each residue mod 4, knn, knnn_x_k2 with the
# bundled seed, its restrict path (n = 2 mod 4), a fixture, n = 0 and
# 1 mod 4 and n = 41; and parts on product vertices.
_FAMILY_DECOMPOSITIONS = {
    "kn_x_k2-9": lambda: kn_times_k2_decomposition(9),
    "kn_x_k2-10": lambda: kn_times_k2_decomposition(10),
    "kn_x_k2-11": lambda: kn_times_k2_decomposition(11),
    "kn_x_k2-12": lambda: kn_times_k2_decomposition(12),
    "knn-3": lambda: chen_yin_k4p4p(3),
    "knnn_x_k2-7-seed": lambda: knnn_times_k2_decomposition(7, seed_provider=_seed),
    "knnn_x_k2-6-seed": lambda: knnn_times_k2_decomposition(6, seed_provider=_seed),
    "knnn_x_k2-2": lambda: knnn_times_k2_decomposition(2),
    "knnn_x_k2-5": lambda: knnn_times_k2_decomposition(5),
    "knnn_x_k2-8": lambda: knnn_times_k2_decomposition(8),
    "knnn_x_k2-13": lambda: knnn_times_k2_decomposition(13),
    "knnn_x_k2-41": lambda: knnn_times_k2_decomposition(41),
    "product-vertices": _product_vertex_decomposition,
}


@pytest.mark.parametrize("case", _FAMILY_DECOMPOSITIONS)
def test_decomposition_json_matches_json_dumps(case):
    doc = decomposition_document(_FAMILY_DECOMPOSITIONS[case]())
    chunks = _streamed(doc)
    assert "".join(chunks) == to_json(doc) == _dumps(doc)
    # one piece per top-level member, and one per part
    assert len(chunks) >= len(doc) + len(doc["parts"])


def test_write_json_streams_other_documents():
    d = kn_times_k2_decomposition(9)
    docs = [
        decomposition_document(Decomposition(d.target, (), "", "")),
        report_document(verify_decomposition(d.target, d.parts[1:])),
        bound_report_document(g_times_k2_bounds(make_complete(9))),
        graph_document(d.target),
    ]
    for doc in docs:
        assert "".join(_streamed(doc)) == to_json(doc) == _dumps(doc)


class _Recorder:
    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_decompose_writes_its_document_in_pieces(monkeypatch):
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["decompose", "kn_x_k2", "64"]) == 0
    text = "".join(out.writes)
    assert text == to_json(decomposition_document(kn_times_k2_decomposition(64)))
    assert len(out.writes) > 1
    assert max(map(len, out.writes)) < len(text)


def test_product_graph_json_matches_json_dumps():
    doc = graph_document(kronecker_product(make_cycle(3), make_complete_bipartite(2, 3)))
    assert "left" in doc["vertices"][0]
    assert "".join(_streamed(doc)) == to_json(doc) == _dumps(doc)


def test_to_json_never_uses_json_indent_encoder(monkeypatch):
    d = kn_times_k2_decomposition(64)
    docs = [
        decomposition_document(d),
        report_document(verify_decomposition(d.target, d.parts)),
        bound_report_document(g_times_k2_bounds(make_complete(64))),
    ]
    expected = [_dumps(doc) for doc in docs]

    def forbidden(*args, **kwargs):
        raise AssertionError("json's pure-Python indent encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
    assert [to_json(doc) for doc in docs] == expected


def test_verify_never_materialises_label_edges(monkeypatch, tmp_path, capsys):
    path = tmp_path / "kn_x_k2_64.json"
    path.write_text(to_json(decomposition_document(kn_times_k2_decomposition(64))))

    def forbidden(self):
        raise AssertionError("verify built label edges of a graph")

    monkeypatch.setattr(Graph, "edges", property(forbidden))
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def _set_every_index(obj, value):
    obj["index"] = value
    for nested in obj.values():
        if isinstance(nested, dict):
            _set_every_index(nested, value)


@pytest.mark.parametrize("kind", ["labels", "product-vertices"])
def test_decomposition_document_shares_no_vertex_objects(kind):
    if kind == "labels":
        d = kn_times_k2_decomposition(8)
    else:
        prod = kronecker_product(make_cycle(3), make_complete(3))
        d = Decomposition(prod, (prod, prod), "", "")
    doc = decomposition_document(d)
    first = doc["parts"][0]["vertices"][0]
    assert first in doc["parts"][1]["vertices"] and first in doc["target"]["vertices"]
    before = _dumps([doc["parts"][1], doc["target"]])
    _set_every_index(first, -1)
    assert _dumps([doc["parts"][1], doc["target"]]) == before


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
