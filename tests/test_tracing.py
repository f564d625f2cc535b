"""The benchmark's per-layer tracer must find every binding it wraps.

perfbench/tracing.py wraps the module-level names through which one layer
calls another; a renamed entry point would silently drop its span, so the
full list is checked here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_finds_every_layer_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
