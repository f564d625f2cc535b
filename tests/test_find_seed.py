"""The write path of scripts/find_seed.py, checked without running a search."""

from __future__ import annotations

import importlib.resources
import importlib.util
from pathlib import Path

from kronthick.serialize import load_seed_file

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
