"""scripts/stage_times.py: a small run prints its table and its footer."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import kronthick

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_times.py"
# target, build, verify with and without moves, LR, emit, parse, verify
# PATH after the read, the whole verify command and the decompose peak
STAGES = 10


def test_stage_times_prints_a_row_per_stage_and_the_footer():
    src = Path(kronthick.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "8,9", "--repeat", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["| stage | n = 8 | n = 9 |", "|---|---|---|"]
    rows = [line for line in lines[2:] if line.startswith("|")]
    assert len(rows) == STAGES
    for row in rows:
        name, *cells = [c.strip() for c in row.strip("|").split("|")]
        assert name and len(cells) == 2, row
        assert all(re.fullmatch(r"\d+\.\d (ms|MB)", c) for c in cells), row
    footer = [line for line in lines if line.startswith("K_{n,n,n} x K_2:")]
    assert len(footer) == 1
    assert "build n = 41" in footer[0] and "seeded build n = 7" in footer[0]
