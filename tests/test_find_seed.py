"""scripts/find_seed.py: its circulant search, seed document and oracle fallback."""

from __future__ import annotations

import importlib.resources
import importlib.util
from pathlib import Path

from kronthick.bounds import ORACLE
from kronthick.constructions import Decomposition, validate_seed
from kronthick.graphs import Family, Graph, VertexLabel, make_complete_bipartite
from kronthick.serialize import load_seed_file
from kronthick.verification import UPPER_BOUND_ONLY

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "find_seed.py"
SEED_PATH = importlib.resources.files("kronthick").joinpath("data").joinpath("seed_k7_7.json")


def _load_script():
    spec = importlib.util.spec_from_file_location("find_seed", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_json_rewrites_the_bundled_seed_byte_for_byte():
    find_seed = _load_script()
    parts = load_seed_file(str(SEED_PATH)).parts
    assert find_seed.seed_json(parts).encode("utf-8") == SEED_PATH.read_bytes()


def test_circulant_search_reproduces_the_bundled_seed():
    # main() minus its write: the search, then the document it would write
    find_seed = _load_script()
    hit = find_seed.circulant_search()
    assert hit is not None
    p1, p2, single = hit
    parts = (find_seed._to_graph(p1), find_seed._to_graph(p2), find_seed._to_graph([single]))
    assert find_seed.seed_json(parts).encode("utf-8") == SEED_PATH.read_bytes()


def test_oracle_search_finds_a_valid_seed():
    parts = _load_script().oracle_search(wall=60)
    assert parts is not None
    seed = Decomposition(
        target=make_complete_bipartite(7, 7),
        parts=parts,
        guarantee=UPPER_BOUND_ONLY,
        provenance=ORACLE,
    )
    assert validate_seed(seed) == 1


def _transposed(g: Graph) -> Graph:
    """g with u_i and v_i swapped: a valid seed part on other edges."""
    swap = {Family.U: Family.V, Family.V: Family.U}

    def label(x):
        return VertexLabel(swap[x.family], x.index)

    return Graph([label(x) for x in g.vertices], [(label(a), label(b)) for a, b in g.edges])


def test_oracle_path_prints_its_seed_and_keeps_the_bundled_file(monkeypatch, capsys):
    find_seed = _load_script()
    bundled = SEED_PATH.read_bytes()
    parts = tuple(map(_transposed, load_seed_file(str(SEED_PATH)).parts))
    monkeypatch.setattr(find_seed, "oracle_search", lambda wall: parts)
    try:
        code = find_seed.main(["--oracle"])
    finally:  # a failure here must not leave the other tests a different seed
        after = SEED_PATH.read_bytes()
        if after != bundled:
            SEED_PATH.write_bytes(bundled)
    assert after == bundled
    assert code == 0
    out = capsys.readouterr().out
    assert out == find_seed.seed_json(parts)
    assert out.encode("utf-8") != bundled
