from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib.resources
import json
import shutil

import pytest

from kronthick import cli, constructions, serialize, verification
from kronthick.bounds import theta_kn_times_k2, theta_knnn_times_k2
from kronthick.cli import main
from kronthick.constructions import (
    Decomposition,
    chen_yin_k4p4p,
    knnn_times_k2_decomposition,
)
from kronthick.errors import FixtureIntegrityError
from kronthick.graphs import Graph, make_complete, make_complete_bipartite
from kronthick.products import kronecker_product
from kronthick.serialize import (
    decomposition_document,
    graph_document,
    graph_from_document,
    load_json,
    to_json,
)

SEED_PATH = str(
    importlib.resources.files("kronthick").joinpath("data").joinpath("seed_k7_7.json")
)

FIXTURE_N5_PATH = str(
    importlib.resources.files("kronthick").joinpath("data").joinpath("knnn_x_k2_n5.json")
)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ============================================================
# product
# ============================================================


def test_product_k5_k2(capsys):
    code, out = run(capsys, "product", "kn:5", "kn:2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 10
    assert len(doc["edges"]) == 20


def test_product_k2_k2_two_components(capsys):
    code, out = run(capsys, "product", "kn:2", "kn:2")
    assert code == 0
    nx = pytest.importorskip("networkx")
    g = graph_from_document(json.loads(out))
    h = nx.Graph(g.edges)
    h.add_nodes_from(g.vertices)
    assert nx.number_connected_components(h) == 2


def test_product_right_flag_matches_library(capsys, tmp_path):
    h = make_complete(2)
    path = tmp_path / "h.json"
    path.write_text(to_json(graph_document(h)))
    code, out = run(capsys, "product", "kn:3", "--right", f"file:{path}")
    assert code == 0
    assert graph_from_document(json.loads(out)) == kronecker_product(
        make_complete(3), h
    )


def test_product_dot_output(capsys):
    code, out = run(capsys, "product", "path:2", "kn:2", "--dot")
    assert code == 0
    assert out.startswith("graph G {")


def test_product_spec_forms(capsys):
    for spec, vertices in [
        ("kmn:2,3", 10),
        ("knnn:2", 12),
        ("cycle:5", 10),
        ("path:4", 8),
    ]:
        code, out = run(capsys, "product", spec, "kn:2")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == vertices


def test_product_rejects_bad_spec(capsys):
    assert run(capsys, "product", "zz:3", "kn:2")[0] == 2
    assert run(capsys, "product", "kn:x", "kn:2")[0] == 2
    assert run(capsys, "product", "kn:3")[0] == 2  # missing second factor
    assert run(capsys, "product", "kn5", "kn:2")[0] == 2  # no colon


def test_product_missing_file(capsys):
    assert run(capsys, "product", "kn:3", "file:/nonexistent.json")[0] == 3


def test_product_of_a_product_file_exits_2(capsys, tmp_path):
    # A pair of pairs is no vertex a document can hold, so the product of
    # a general product writes nothing instead of a file `product` rejects.
    code, out = run(capsys, "product", "cycle:3", "kn:3")
    assert code == 0
    path = tmp_path / "product.json"
    path.write_text(out)
    for argv in (["product", f"file:{path}", "kn:2"], ["product", "kn:2", f"file:{path}"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "pair vertices" in captured.err


# ============================================================
# decompose
# ============================================================


def test_decompose_kn8(capsys):
    code, out = run(capsys, "decompose", "kn_x_k2", "8")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["parts"]) == 2
    assert doc["guarantee"] == "OPTIMAL"


def test_decompose_knnn9(capsys):
    code, out = run(capsys, "decompose", "knnn_x_k2", "9")
    assert code == 0
    assert len(json.loads(out)["parts"]) == 5


def test_decompose_knn_takes_p(capsys):
    code, out = run(capsys, "decompose", "knn", "2")
    assert code == 0
    assert len(json.loads(out)["parts"]) == 3


def test_decompose_seedless_exit_code(capsys):
    assert run(capsys, "decompose", "knnn_x_k2", "7")[0] == 4


def test_decompose_with_seed_file(capsys):
    code, out = run(capsys, "decompose", "knnn_x_k2", "7", "--seed", SEED_PATH)
    assert code == 0
    assert len(json.loads(out)["parts"]) == 4


def test_decompose_seed_dir_discovery(capsys, tmp_path, monkeypatch):
    shutil.copy(SEED_PATH, tmp_path / "seed_k7_7.json")
    monkeypatch.setenv("THICKNESS_SEED_DIR", str(tmp_path))
    code, out = run(capsys, "decompose", "knnn_x_k2", "6")
    assert code == 0
    assert len(json.loads(out)["parts"]) == 4


def test_decompose_seed_dir_without_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("THICKNESS_SEED_DIR", str(tmp_path))
    assert run(capsys, "decompose", "knnn_x_k2", "11")[0] == 4


def test_decompose_fails_an_optimal_claim_it_cannot_certify(capsys, monkeypatch):
    # a builder that splits its last part in two but still claims OPTIMAL
    build = cli.kn_times_k2_decomposition

    def split_last_part(n):
        d = build(n)
        *kept, last = d.parts
        half = len(last.pairs) // 2
        halves = (Graph._trusted(last.vertices, last.pairs[:half]),
                  Graph._trusted(last.vertices, last.pairs[half:]))
        return dataclasses.replace(d, parts=(*kept, *halves))

    monkeypatch.setattr(cli, "kn_times_k2_decomposition", split_last_part)
    code = main(["decompose", "kn_x_k2", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["guarantee"] == "OPTIMAL"
    assert "not certified" in captured.err


def _k33_seed_document():
    target = make_complete_bipartite(3, 3)
    single = target.edges[0]
    parts = (Graph(target.vertices, target.edges[1:]), Graph(single, [single]))
    return decomposition_document(Decomposition(target, parts, "", ""))


def _bundled_seed_document(edit):
    with open(SEED_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    return doc


def _bundled_seed_with_part0_vertex(vertex):
    return lambda: _bundled_seed_document(
        lambda doc: doc["parts"][0]["vertices"].append(vertex))


_BAD_SEED_DOCUMENTS = {
    "k33": _k33_seed_document,
    "k88": lambda: decomposition_document(chen_yin_k4p4p(2)),
    "no-single-edge-part": lambda: _bundled_seed_document(
        lambda doc: doc["parts"].pop()),
    "part0-edge-dropped": lambda: _bundled_seed_document(
        lambda doc: doc["parts"][0]["edges"].pop(0)),
    # An isolated part vertex outside K_{7,7}: a foreign family, a layered
    # u, and a u index past 7.
    "part0-vertex-x1": _bundled_seed_with_part0_vertex({"family": "X", "index": 1}),
    "part0-vertex-u1-layer1": _bundled_seed_with_part0_vertex(
        {"family": "U", "index": 1, "layer": 1}),
    "part0-vertex-u9": _bundled_seed_with_part0_vertex({"family": "U", "index": 9}),
}


@pytest.mark.parametrize("seed", _BAD_SEED_DOCUMENTS)
@pytest.mark.parametrize("n", ["6", "7", "11"])
def test_decompose_bad_seed_file_exits_3(capsys, tmp_path, n, seed):
    path = tmp_path / "seed.json"
    path.write_text(to_json(_BAD_SEED_DOCUMENTS[seed]()))
    code = main(["decompose", "knnn_x_k2", n, "--seed", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# sha256 of `decompose` stdout, recorded before the constructions were
# rewritten to build each part once.  A "-seed" case passes the bundled
# K_{7,7} seed file.
_DECOMPOSE_SHA256 = {
    "kn_x_k2-2":
        "11fa25c9deae6c0f9eb2f48a65ee50b349baeb2bbfcbb9c638553e60c05b74d8",
    "kn_x_k2-3":
        "15bd7f47f608bd49b612ca730eff96ebb10136e9a09da550c78b132fa761e5aa",
    "kn_x_k2-5":
        "13dbd7dfbbb47347f22cffc8f75d05ebbf1894b1ee57480268aa6cc79d0aefd1",
    "kn_x_k2-6":
        "d367fb3ffed829aff194be571e8d628181a1176966c7f184deaa1c7e331eb1d5",
    "kn_x_k2-7":
        "a71892f97df0f905e92403be62dd9da09312bb82ce8563d884649a9cbeb51fb0",
    "kn_x_k2-8":
        "1440218a6fa10ba032a8a97bbfecb8100bad7a874180057a174622b0b416265b",
    "kn_x_k2-9":
        "3e52c96fa50aed72313f170f125ec269b120e2385a712206641a44db3b8afa89",
    "kn_x_k2-12":
        "9a390ce088f9d596f1b488afa8866270862a3772266fd0a926be1bea90071e27",
    "knn-1":
        "22598641df5e990108f011d555ae98d22135595222097c1a75beaf7202a2cdf3",
    "knn-3":
        "01d0ca3936b3027cb7880c3f55aa85c7de93de6ed681101000f60f9defa4ad32",
    "knnn_x_k2-1":
        "cc870aa9c8602f39398d6fc846b86056228cdf898669d73c99bf9cedf8f605f8",
    "knnn_x_k2-2":
        "71861dc2d27f85354ba14b448aaa60df420dc0e3efac02a43d60aea658047286",
    "knnn_x_k2-3":
        "94624d171f7210f419ea6c291a9c74f3a0d4e1bfe157e62529241d325c2b464b",
    "knnn_x_k2-4":
        "7c69994296455794d1989889de2318ac0cdfd0b4794c6a8cf27e69410d304824",
    "knnn_x_k2-5":
        "332d2b0458c1591770e304acd4992bcaa1d6a0aa432012da3a4516764f30f6de",
    "knnn_x_k2-8":
        "c03c9393cf8232fbec6af921357dad3b1c7dc4b8b4349dd026183f659591d50d",
    "knnn_x_k2-9":
        "91f7bda0d39248935e684f30114f1683c960193b06b621bfa0a7f2571cbcf55e",
    "knnn_x_k2-13":
        "4d9d2223cc13c8b7fc7a25f0912fd3a3a3048a02a664e4e902de73d9fc4476de",
    "knnn_x_k2-6-seed":
        "ecaae3d36449eac36b3a9168b5ba0fe23191e82c121dab254c65fbbbc45aceab",
    "knnn_x_k2-7-seed":
        "a33ef74c8f4ff7ea4b6d00cf197b6051ea91db7a68c8f0239bd2dfdfc83d3f06",
}


@pytest.mark.parametrize("case", _DECOMPOSE_SHA256)
def test_decompose_output_byte_stable(capsys, case):
    family, n, *seed = case.split("-")
    code, out = run(capsys, "decompose", family, n, *(["--seed", SEED_PATH] if seed else []))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _DECOMPOSE_SHA256[case]


@pytest.mark.parametrize(
    "argv",
    [["kn_x_k2", "64"], ["knn", "16"], ["knnn_x_k2", "41"], ["knnn_x_k2", "7", "--seed", SEED_PATH]],
    ids=["kn_x_k2-64", "knn-16", "knnn_x_k2-41", "knnn_x_k2-7-seed"],
)
def test_decompose_builds_no_label_edges(monkeypatch, capsys, argv):
    expected = run(capsys, "decompose", *argv)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("decompose built a graph from label edges")

    monkeypatch.setattr(Graph, "__init__", forbidden)
    monkeypatch.setattr(Graph, "edges", property(forbidden))
    assert run(capsys, "decompose", *argv) == expected
    assert expected[0] == 0


@pytest.mark.parametrize(
    "command,lr_calls",
    [
        ("decompose kn_x_k2 16", 1),
        ("decompose kn_x_k2 17", 2),
        ("decompose kn_x_k2 18", 2),
        ("decompose kn_x_k2 19", 2),
        ("decompose kn_x_k2 64", 1),
        ("decompose kn_x_k2 256", 1),
        ("decompose knn 1", 2),
        ("decompose knn 4", 2),
        ("decompose knnn_x_k2 4", 2),
        ("decompose knnn_x_k2 8", 2),
        ("decompose knnn_x_k2 9", 2),
        ("decompose knnn_x_k2 13", 2),
        ("decompose knnn_x_k2 6 --seed", 3 + 2),
        ("decompose knnn_x_k2 7 --seed", 3 + 2),
        ("table kn_x_k2 2..12", 17),
    ],
)
def test_lr_runs_only_on_parts_without_an_image(monkeypatch, capsys, tmp_path, command,
                                                lr_calls):
    # Every part a construction maps from an earlier one must take that
    # part's verdict: the LR test sees exactly the parts whose image is
    # None, over every verification the command makes (a seed's included).
    # verify PATH on a decompose document tests the same parts as the
    # decompose's own verification did.
    tested, unmapped = [], []
    calls = []  # per verification, the indices of the parts it LR-tested
    planar = verification.is_planar
    verify = verification.verify_decomposition

    def counting_planar(g):
        tested.append(g)
        return planar(g)

    def recording_verify(target, parts, lower=None, images=None, claim=None):
        parts = list(parts)
        unmapped.extend(g for g, image in zip(parts, images or [None] * len(parts))
                        if image is None)
        before = len(tested)
        report = verify(target, parts, lower, images, claim)
        ids = [id(g) for g in parts]
        calls.append([ids.index(id(g)) for g in tested[before:]])
        return report

    monkeypatch.setattr(verification, "is_planar", counting_planar)
    for mod in (cli, constructions):
        monkeypatch.setattr(mod, "verify_decomposition", recording_verify)
    argv = command.replace("--seed", f"--seed {SEED_PATH}").split()
    code, out = run(capsys, *argv)
    assert code == 0
    assert [id(g) for g in tested] == [id(g) for g in unmapped]
    assert len(tested) == lr_calls
    if argv[0] == "decompose":
        path = tmp_path / "d.json"
        path.write_text(out)
        decomposed = calls[-1]
        for log in (tested, unmapped, calls):
            log.clear()
        assert run(capsys, "verify", str(path), "--quiet")[0] == 0
        assert calls == [decomposed]
        assert [id(g) for g in tested] == [id(g) for g in unmapped]


def test_decompose_usage_errors(capsys):
    assert run(capsys, "decompose", "nonsense", "3")[0] == 2
    assert run(capsys, "decompose", "kn_x_k2", "1")[0] == 2


@pytest.mark.parametrize("family,size", [("knnn_x_k2", "0"), ("knn", "0"), ("kn_x_k2", "1")])
def test_decompose_below_the_size_guard_is_a_usage_error(capsys, family, size):
    assert main(["decompose", family, size]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _missing_file(path):
    raise FileNotFoundError(path)


def _loaded_with(edit):
    def load(path):
        doc = load_json(path)
        edit(doc)
        return doc
    return load


# A stand-in for the n = 3 fixture loader's read, and the error it must cause.
_CORRUPT_FIXTURES = {
    "missing": (_missing_file, "fixture file for n = 3 is missing"),
    "n5-document": (lambda path: load_json(FIXTURE_N5_PATH),
                    "fixture n = 3 declares the wrong target graph"),
    "part-dropped": (_loaded_with(lambda doc: doc["parts"].pop()),
                     "fixture n = 3 has 1 parts, expected 2"),
    "edge-dropped": (_loaded_with(lambda doc: doc["parts"][0]["edges"].pop()),
                     "fixture n = 3 fails verification: "),
}


@pytest.mark.parametrize("case", _CORRUPT_FIXTURES)
def test_corrupt_fixture_is_refused(capsys, monkeypatch, case):
    load, message = _CORRUPT_FIXTURES[case]
    monkeypatch.setattr(serialize, "load_json", load)
    with pytest.raises(FixtureIntegrityError, match=message):
        knnn_times_k2_decomposition(3)
    assert main(["decompose", "knnn_x_k2", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# ============================================================
# verify
# ============================================================


def test_verify_roundtrip(capsys, tmp_path):
    out = run(capsys, "decompose", "kn_x_k2", "8")[1]
    path = tmp_path / "d.json"
    path.write_text(out)
    code, text = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(text)["passed"] is True


def test_verify_quiet(capsys, tmp_path):
    out = run(capsys, "decompose", "knn", "1")[1]
    path = tmp_path / "d.json"
    path.write_text(out)
    code, text = run(capsys, "verify", str(path), "--quiet")
    assert code == 0
    assert text.strip() == "PASS"


def test_verify_detects_duplicated_edge(capsys, tmp_path):
    doc = json.loads(run(capsys, "decompose", "kn_x_k2", "8")[1])
    doc["parts"][1]["edges"].append(doc["parts"][0]["edges"][0])
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    code, text = run(capsys, "verify", str(path))
    assert code == 1
    report = json.loads(text)
    assert report["passed"] is False
    assert len(report["overlap"]) == 1


def test_verify_bundled_fixture_n5(capsys):
    code, text = run(capsys, "verify", FIXTURE_N5_PATH, "--quiet")
    assert code == 0
    assert text.strip() == "PASS"


def test_verify_parse_failures(capsys, tmp_path):
    assert run(capsys, "verify", str(tmp_path / "absent.json"))[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(capsys, "verify", str(bad))[0] == 3


_UNREADABLE_FILES = {
    "non-utf8": b"\xff\xfe\x00garbage",
    "deep-nesting": b"[" * 100_000,
    "huge-int": b"[" + b"1" * 5000 + b"]",  # past Python's int digit limit
}

_FILE_READING_COMMANDS = {
    "verify": lambda path: ["verify", path],
    "decompose-seed": lambda path: ["decompose", "knnn_x_k2", "7", "--seed", path],
    "product-file": lambda path: ["product", f"file:{path}", "kn:2"],
}


@pytest.mark.parametrize("command", _FILE_READING_COMMANDS)
@pytest.mark.parametrize("content", _UNREADABLE_FILES)
def test_unreadable_json_file_exits_3(capsys, tmp_path, content, command):
    path = tmp_path / "doc.json"
    path.write_bytes(_UNREADABLE_FILES[content])
    code = main(_FILE_READING_COMMANDS[command](str(path)))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _container(doc, keys):
    for k in keys:
        doc = doc[k]
    return doc


def _set(path, value):
    *keys, last = path

    def mutate(doc):
        _container(doc, keys)[last] = value
    return mutate


def _drop(path):
    *keys, last = path
    return lambda doc: _container(doc, keys).pop(last)


_U1 = {"family": "U", "index": 1}
_V2 = {"family": "V", "index": 2}


def _add_vertex(obj):
    def mutate(doc):
        doc["parts"][0]["vertices"].append(obj)
    return mutate


def _reuse_with_index_true(doc):
    # a later part repeats a vertex object of the first part, index 1 as true
    first = doc["parts"][0]["vertices"][0]
    later = doc["parts"][1]["vertices"]
    later[later.index(first)] = {**first, "index": True}


def _drop_first_vertex(doc):
    # the part's edges still name the target vertex it no longer lists
    del doc["parts"][0]["vertices"][0]


def _add_edge(make):
    def mutate(doc):
        edges = doc["parts"][0]["edges"]
        edges.append(make(edges[0]))
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set(["parts"], 5),
        _set(["parts"], {}),
        _set(["parts", 0, "vertices"], 7),
        _set(["parts", 0, "edges"], {}),
        _set(["target", "edges"], {}),
        _set(["target", "vertices"], "u_1"),
        _add_vertex({"family": "U", "index": True}),
        _add_vertex({"family": "U", "index": 9, "layer": True}),
        _set(["parts", 0, "vertices", 0, "family"], ["U"]),
        _set(["parts", 0, "edges", 0], [["u_1"], "v_2"]),
        _add_edge(list),
        _add_edge(lambda e: e[::-1]),
        _add_edge(lambda e: [e[0], e[0]]),
        _set(["target"], {"vertices": [], "edges": []}),
        _set(["guarantee"], ["x"]),
        _set(["provenance", "theorem"], {"a": 1}),
        _reuse_with_index_true,
        _drop_first_vertex,
        _set(["parts", 0, "vertices", 0, "colour"], 1),
        _set(["parts", 0, "vertices", 0], 5),
        _set(["parts", 0, "vertices", 0], {"left": _U1, "right": _V2, "x": 1}),
        _set(["parts", 0, "vertices", 0], {"left": {"left": _U1, "right": _V2}, "right": _V2}),
        _set(["parts", 0, "vertices", 0, "index"], 0),
        _set(["parts", 0, "vertices", 0, "layer"], 3),
        _drop(["parts", 0, "edges"]),
        _drop(["guarantee"]),
        _set(["provenance"], "THM_3_3"),
        _set(["provenance", "figure"], 3),
    ],
    ids=[
        "parts-int", "parts-object", "vertices-int", "edges-object",
        "target-edges-object", "target-vertices-string", "index-bool",
        "layer-bool", "family-list", "edge-ref-list", "edge-twice",
        "edge-reversed", "self-loop", "empty-target", "guarantee-list",
        "theorem-object", "later-part-index-true", "edge-names-unlisted-vertex",
        "vertex-unknown-key", "vertex-int", "pair-third-key", "pair-nested",
        "index-zero", "layer-3", "part-no-edges", "no-guarantee",
        "provenance-string", "figure-int",
    ],
)
def test_verify_malformed_document_exits_3(capsys, tmp_path, mutate):
    doc = json.loads(run(capsys, "decompose", "knn", "1")[1])
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_verify_top_level_array_exits_3(capsys, tmp_path):
    doc = json.loads(run(capsys, "decompose", "knn", "1")[1])
    path = tmp_path / "array.json"
    path.write_text(json.dumps([doc]))
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr() == ("", "error: document must be a JSON object\n")


# The stderr of verify for one bad entry appended to part 0's edges, as
# recorded when each edge end was checked by type and membership first.
_BAD_EDGE_ERRORS = {
    "entry-int": (5, "edge entry must be a [ref, ref] pair: 5"),
    "entry-object": ({"a": "u_1"}, "edge entry must be a [ref, ref] pair: {'a': 'u_1'}"),
    "length-1": (["u_1"], "edge entry must be a [ref, ref] pair: ['u_1']"),
    "length-3": (["u_1", "v_2", "v_2"],
                 "edge entry must be a [ref, ref] pair: ['u_1', 'v_2', 'v_2']"),
    "ref-int": ([1, "v_2"], "edge references must be vertex names: [1, 'v_2']"),
    "ref-null": ([None, "v_2"], "edge references must be vertex names: [None, 'v_2']"),
    "ref-list": ([["u_1"], "v_2"], "edge references must be vertex names: [['u_1'], 'v_2']"),
    "ref-object": (["u_1", {"name": "v_2"}],
                   "edge references must be vertex names: ['u_1', {'name': 'v_2'}]"),
    "unknown-then-list": (["zz_9", ["v_2"]],
                          "edge references must be vertex names: ['zz_9', ['v_2']]"),
    "ref-unknown": (["u_1", "zz_9"], "edge references unknown vertex: ['u_1', 'zz_9']"),
    "self-loop": (["u_1", "u_1"], "bad edge: self-loop at V(u_1)"),
    "edge-twice": (["u_1", "v_2"], "an edge is listed twice"),
    "edge-reversed": (["v_2", "u_1"], "an edge is listed twice"),
}


@pytest.mark.parametrize("case", _BAD_EDGE_ERRORS)
def test_verify_bad_edge_entry_error_is_pinned(capsys, tmp_path, case):
    entry, message = _BAD_EDGE_ERRORS[case]
    doc = json.loads(run(capsys, "decompose", "knn", "1")[1])
    assert ["u_1", "v_2"] in doc["parts"][0]["edges"]
    doc["parts"][0]["edges"].append(entry)
    path = tmp_path / "bad-edge.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def _append_empty_part(doc):
    doc["parts"].append({"vertices": [], "edges": []})


def _split_first_part(doc):
    # a valid decomposition with one part more than the bound allows
    first = doc["parts"][0]
    half = len(first["edges"]) // 2
    doc["parts"].append({"vertices": json.loads(json.dumps(first["vertices"])),
                         "edges": first["edges"][half:]})
    del first["edges"][half:]


def _duplicate_edge_and_append_empty_part(doc):
    doc["parts"][1]["edges"].append(doc["parts"][0]["edges"][0])
    _append_empty_part(doc)


@pytest.mark.parametrize(
    "family, size, mutate, key, value",
    [
        ("kn_x_k2", "5", _add_vertex({"family": "X", "index": 1}), "foreign_vertices", ["x_1"]),
        ("knn", "1", _add_vertex({"family": "U", "index": 9}), "foreign_vertices", ["u_9"]),
        ("kn_x_k2", "5", _append_empty_part, "uncertified_claim", "OPTIMAL"),
        ("knn", "1", _split_first_part, "uncertified_claim", "OPTIMAL"),
        ("kn_x_k2", "8", _duplicate_edge_and_append_empty_part, "uncertified_claim", None),
    ],
    ids=["foreign-isolated-vertex", "vertex-only-a-part-has", "empty-part-appended",
         "inflated-guarantee", "claim-on-a-failing-document"],
)
def test_verify_document_with_a_false_claim_exits_1(capsys, tmp_path, family, size, mutate,
                                                     key, value):
    doc = json.loads(run(capsys, "decompose", family, size)[1])
    assert doc["guarantee"] == "OPTIMAL"
    mutate(doc)
    path = tmp_path / "false.json"
    path.write_text(json.dumps(doc))
    code, text = run(capsys, "verify", str(path))
    report = json.loads(text)
    assert code == 1 and report["passed"] is False
    assert report.get(key) == value
    assert run(capsys, "verify", str(path), "--quiet") == (1, "FAIL\n")
    if key == "uncertified_claim" and value:
        # the same parts without the claim pass, and the report has no new key
        doc["guarantee"] = "UPPER_BOUND_ONLY"
        path.write_text(json.dumps(doc))
        code, text = run(capsys, "verify", str(path))
        assert code == 0 and sorted(json.loads(text)) == [
            "coverage_extra", "coverage_missing", "nonplanar_parts", "optimality",
            "overlap", "passed",
        ]


# ============================================================
# bounds
# ============================================================


def test_bounds_knnn8(capsys):
    code, out = run(capsys, "bounds", "knnn_x_k2", "8")
    assert code == 0
    assert json.loads(out)["exact"] == 5


def test_bounds_kmn(capsys):
    code, out = run(capsys, "bounds", "kmn_x_k2", "3,7")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] <= doc["upper"]


def test_bounds_product_k5_k5(capsys):
    code, out = run(capsys, "bounds", "product", "kn:5", "kn:5")
    assert code == 0
    assert json.loads(out)["lower"] == 3


def test_bounds_other_families(capsys):
    assert json.loads(run(capsys, "bounds", "kn_x_k2", "8")[1])["exact"] == 2
    assert json.loads(run(capsys, "bounds", "knn", "4")[1])["exact"] == 2
    assert json.loads(run(capsys, "bounds", "kmn_x_kpq", "2,3,1,2")[1])["exact"] == 2
    assert json.loads(run(capsys, "bounds", "klmn_x_k2", "2,2,2")[1])["exact"] == 2


def test_bounds_usage_errors(capsys):
    assert run(capsys, "bounds", "kmn_x_kpq", "3")[0] == 2
    assert run(capsys, "bounds", "mystery", "3")[0] == 2
    assert run(capsys, "bounds", "product", "kn:3")[0] == 2
    assert run(capsys, "bounds", "kn_x_k2", "3", "4")[0] == 2


# ============================================================
# table
# ============================================================


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_table_kn_parts_column(capsys):
    code, out = run(capsys, "table", "kn_x_k2", "2..20", "--csv")
    assert code == 0
    for row in parse_csv(out):
        n = int(row["n"])
        assert int(row["parts"]) == theta_kn_times_k2(n)
        assert row["optimal"] == "yes"


def test_table_knnn_supported_sizes(capsys):
    code, out = run(capsys, "table", "knnn_x_k2", "1,4,5,8,9,12,13", "--csv")
    assert code == 0
    for row in parse_csv(out):
        assert int(row["parts"]) == theta_knnn_times_k2(int(row["n"]))


def test_table_knn_parts_is_p_plus_1(capsys):
    code, out = run(capsys, "table", "knn", "1..5", "--csv")
    assert code == 0
    for row in parse_csv(out):
        assert int(row["parts"]) == int(row["n"]) + 1


def test_table_marks_seedless_rows_unsupported(capsys):
    code, out = run(capsys, "table", "knnn_x_k2", "6,7", "--csv")
    assert code == 0
    rows = parse_csv(out)
    assert all(r["optimal"] == "UNSUPPORTED" for r in rows)


def test_table_with_seed_covers_all_rows(capsys):
    code, out = run(capsys, "table", "knnn_x_k2", "6..8", "--seed", SEED_PATH, "--csv")
    assert code == 0
    rows = parse_csv(out)
    assert [r["optimal"] for r in rows] == ["yes", "yes", "yes"]


def test_table_seed_for_another_p_marks_its_rows_unsupported(capsys):
    code, out = run(capsys, "table", "knnn_x_k2", "9..12", "--seed", SEED_PATH, "--csv")
    assert code == 0
    assert [r["optimal"] for r in parse_csv(out)] == ["yes", "UNSUPPORTED", "UNSUPPORTED", "yes"]


@pytest.mark.parametrize("source", ["--seed", "THICKNESS_SEED_DIR"])
def test_table_reads_a_seed_file_once(capsys, tmp_path, monkeypatch, source):
    # rows 6 and 7 take the p = 1 seed; rows 10 and 11 want p = 2, which
    # the --seed file does not serve and the directory does not hold
    loads = []
    load = cli.load_seed_file
    monkeypatch.setattr(cli, "load_seed_file", lambda path: loads.append(path) or load(path))
    argv = ["table", "knnn_x_k2", "6..11", "--csv"]
    if source == "--seed":
        argv += ["--seed", SEED_PATH]
    else:
        shutil.copy(SEED_PATH, tmp_path / "seed_k7_7.json")
        monkeypatch.setenv("THICKNESS_SEED_DIR", str(tmp_path))
    code, out = run(capsys, *argv)
    assert code == 0 and len(loads) == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "1f6a15f582ac6bea20107f1016a847953acdc72046dc517af9edff46d47421e6")


@pytest.mark.parametrize("seed", ["k33", "part0-edge-dropped", "part0-vertex-x1"])
def test_table_with_an_invalid_seed_file_exits_3(capsys, tmp_path, seed):
    path = tmp_path / "seed.json"
    path.write_text(to_json(_BAD_SEED_DOCUMENTS[seed]()))
    code = main(["table", "knnn_x_k2", "1..13", "--seed", str(path), "--csv"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_table_csv_byte_stable(capsys):
    a = run(capsys, "table", "kn_x_k2", "2..10", "--csv")[1]
    b = run(capsys, "table", "kn_x_k2", "2..10", "--csv")[1]
    assert a == b


# (exit code, sha256 of stdout) of table --csv, recorded with the code that
# ran the planarity test on every part.  The p = 1 seed cannot serve the
# p = 2 rows n = 10, 11, so the seeded 1..13 sweep marks them UNSUPPORTED.
_TABLE_SHA256 = {
    "kn_x_k2 2..64": (0, "2d911566e7129e883a25e79c9a5783ed771a022916e30c248ad12248b7b13c99"),
    "knn 1..8": (0, "6d657ba17317be95fcc0b885c4b965beeb3f0376d6d1d4c524d87e28ebb79849"),
    "knnn_x_k2 1..13": (0, "4749e849e38ea8528c65fc90d3280154a1b3fc92be13523301bfad96baca3dbc"),
    "knnn_x_k2 1..9 --seed": (0, "3e724a76cc134ee2feeae06fb05035b0fc427a0b624bd1d92ed18eeb464fb6d6"),
    "knnn_x_k2 1..13 --seed": (0, "5f6e640f6b638fd95ccde48d0bc1f224841ced3f428e1ab6a53f411b3eb37d8b"),
}


@pytest.mark.parametrize("case", _TABLE_SHA256)
def test_table_csv_pinned(capsys, case):
    argv = case.replace("--seed", f"--seed {SEED_PATH}").split()
    code, out = run(capsys, "table", *argv, "--csv")
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == _TABLE_SHA256[case]


def test_table_text_mode_has_header(capsys):
    code, out = run(capsys, "table", "knn", "1..3")
    assert code == 0
    assert out.splitlines()[0].split() == ["n", "lower", "parts", "upper", "optimal"]


def test_table_bad_range(capsys):
    assert run(capsys, "table", "kn_x_k2", "abc")[0] == 2
    assert run(capsys, "table", "kn_x_k2", "x..3")[0] == 2


def test_table_unknown_family_exits_2(capsys):
    assert run(capsys, "table", "nonsense", "1..3")[0] == 2


# ============================================================
# argparse plumbing
# ============================================================


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["nosuchcommand"])
    assert info.value.code == 2


# ============================================================
# cyclic garbage collector
# ============================================================


@pytest.fixture
def collector():
    """Restores the collector's state after the test sets it."""
    before = gc.isenabled()
    yield
    (gc.enable if before else gc.disable)()


def _raise_runtime_error(args):
    raise RuntimeError("boom")


def _verify_an_uncertified_claim(tmp_path):
    d = chen_yin_k4p4p(1)
    path = tmp_path / "claim.json"
    path.write_text(to_json(decomposition_document(
        dataclasses.replace(d, parts=(*d.parts, Graph(())))
    )))
    return ["verify", str(path), "--quiet"]


# argv per exit code, given a scratch directory
_EXITS = {
    0: lambda tmp_path: ["bounds", "kn_x_k2", "5"],
    1: _verify_an_uncertified_claim,
    2: lambda tmp_path: ["bounds", "mystery", "3"],
    3: lambda tmp_path: ["verify", str(tmp_path / "missing.json")],
    4: lambda tmp_path: ["decompose", "knnn_x_k2", "7"],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("code", _EXITS)
def test_main_restores_the_collector_state(capsys, tmp_path, monkeypatch, collector,
                                           enabled, code):
    monkeypatch.delenv("THICKNESS_SEED_DIR", raising=False)
    (gc.enable if enabled else gc.disable)()
    assert main(_EXITS[code](tmp_path)) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_state_on_an_uncaught_error(monkeypatch, collector,
                                                                enabled):
    monkeypatch.setattr(cli, "cmd_bounds", _raise_runtime_error)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="boom"):
        main(["bounds", "kn_x_k2", "5"])
    assert gc.isenabled() is enabled


def test_commands_run_with_the_collector_paused(monkeypatch, collector):
    states = []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: states.append(gc.isenabled()) or 0)
    gc.enable()
    assert main(["bounds", "kn_x_k2", "5"]) == 0
    assert states == [False] and gc.isenabled()
